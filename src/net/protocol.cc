#include "net/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "durability/wal.h"

namespace graphlog::net {

namespace {

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("malformed frame body: " + what);
}

constexpr char kCleanCloseMsg[] = "peer closed the connection";

}  // namespace

// ---------------------------------------------------------------------------
// Wire primitives

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  char b[2];
  std::memcpy(b, &v, 2);
  out->append(b, 2);
}

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

bool Cursor::GetU8(uint8_t* v) {
  if (data.size() - pos < 1) return false;
  *v = static_cast<uint8_t>(data[pos]);
  pos += 1;
  return true;
}

bool Cursor::GetU16(uint16_t* v) {
  if (data.size() - pos < 2) return false;
  std::memcpy(v, data.data() + pos, 2);
  pos += 2;
  return true;
}

bool Cursor::GetU32(uint32_t* v) {
  if (data.size() - pos < 4) return false;
  std::memcpy(v, data.data() + pos, 4);
  pos += 4;
  return true;
}

bool Cursor::GetU64(uint64_t* v) {
  if (data.size() - pos < 8) return false;
  std::memcpy(v, data.data() + pos, 8);
  pos += 8;
  return true;
}

bool Cursor::GetStr(std::string* s) {
  uint32_t n = 0;
  if (!GetU32(&n)) return false;
  if (data.size() - pos < n) return false;
  s->assign(data.data() + pos, n);
  pos += n;
  return true;
}

// ---------------------------------------------------------------------------
// Body codecs

namespace {

void PutBudget(std::string* out, const gov::ResourceBudget& b) {
  PutU64(out, b.max_result_rows);
  PutU64(out, b.max_delta_rows);
  PutU64(out, b.max_rounds);
  PutU64(out, b.max_bytes);
  PutU8(out, b.return_partial ? 1 : 0);
}

bool GetBudget(Cursor* c, gov::ResourceBudget* b) {
  uint8_t partial = 0;
  if (!c->GetU64(&b->max_result_rows) || !c->GetU64(&b->max_delta_rows) ||
      !c->GetU64(&b->max_rounds) || !c->GetU64(&b->max_bytes) ||
      !c->GetU8(&partial)) {
    return false;
  }
  b->return_partial = partial != 0;
  return true;
}

bool GetBool(Cursor* c, bool* v) {
  uint8_t b = 0;
  if (!c->GetU8(&b)) return false;
  *v = b != 0;
  return true;
}

}  // namespace

void EncodeHello(const WireHello& m, std::string* body) {
  PutU32(body, m.version);
}

Status DecodeHello(std::string_view body, WireHello* m) {
  Cursor c{body};
  if (!c.GetU32(&m->version)) return Malformed("truncated hello");
  if (!c.done()) return Malformed("trailing bytes after hello");
  return Status::OK();
}

void EncodeSessionOpen(const WireSessionOpen& m, std::string* body) {
  PutStr(body, m.name);
  PutBudget(body, m.budget);
  PutU64(body, m.deadline_ms);
}

Status DecodeSessionOpen(std::string_view body, WireSessionOpen* m) {
  Cursor c{body};
  if (!c.GetStr(&m->name) || !GetBudget(&c, &m->budget) ||
      !c.GetU64(&m->deadline_ms)) {
    return Malformed("truncated session-open");
  }
  if (!c.done()) return Malformed("trailing bytes after session-open");
  return Status::OK();
}

void EncodeSessionInfo(const WireSessionInfo& m, std::string* body) {
  PutStr(body, m.name);
  PutU64(body, m.epoch);
}

Status DecodeSessionInfo(std::string_view body, WireSessionInfo* m) {
  Cursor c{body};
  if (!c.GetStr(&m->name) || !c.GetU64(&m->epoch)) {
    return Malformed("truncated session-info");
  }
  if (!c.done()) return Malformed("trailing bytes after session-info");
  return Status::OK();
}

void EncodeQuery(const WireQuery& m, std::string* body) {
  PutU8(body, m.language);
  PutStr(body, m.text);
  PutU32(body, m.num_threads);
  PutU8(body, m.specialize_bound_closures ? 1 : 0);
  PutU8(body, m.explain ? 1 : 0);
  PutBudget(body, m.budget);
  PutU64(body, m.deadline_ms);
}

Status DecodeQuery(std::string_view body, WireQuery* m) {
  Cursor c{body};
  if (!c.GetU8(&m->language) || !c.GetStr(&m->text) ||
      !c.GetU32(&m->num_threads) ||
      !GetBool(&c, &m->specialize_bound_closures) ||
      !GetBool(&c, &m->explain) || !GetBudget(&c, &m->budget) ||
      !c.GetU64(&m->deadline_ms)) {
    return Malformed("truncated query");
  }
  if (m->language > 1) {
    return Malformed("unknown query language " +
                     std::to_string(m->language));
  }
  if (!c.done()) return Malformed("trailing bytes after query");
  return Status::OK();
}

void EncodeQueryResult(const WireQueryResult& m, std::string* body) {
  PutU64(body, m.tuples_derived);
  PutU64(body, m.graphs_translated);
  PutU64(body, m.graphs_summarized);
  PutU64(body, m.result_tuples);
  PutU64(body, m.epoch);
  PutU8(body, m.truncated ? 1 : 0);
  PutU8(body, m.cache_hit ? 1 : 0);
  PutU8(body, m.served_from_view ? 1 : 0);
  PutStr(body, m.truncated_by);
  PutStr(body, m.explain);
}

Status DecodeQueryResult(std::string_view body, WireQueryResult* m) {
  Cursor c{body};
  if (!c.GetU64(&m->tuples_derived) || !c.GetU64(&m->graphs_translated) ||
      !c.GetU64(&m->graphs_summarized) || !c.GetU64(&m->result_tuples) ||
      !c.GetU64(&m->epoch) || !GetBool(&c, &m->truncated) ||
      !GetBool(&c, &m->cache_hit) || !GetBool(&c, &m->served_from_view) ||
      !c.GetStr(&m->truncated_by) || !c.GetStr(&m->explain)) {
    return Malformed("truncated query-result");
  }
  if (!c.done()) return Malformed("trailing bytes after query-result");
  return Status::OK();
}

void EncodeApplyResult(const WireApplyResult& m, std::string* body) {
  PutU64(body, m.facts);
  PutU64(body, m.epoch);
}

Status DecodeApplyResult(std::string_view body, WireApplyResult* m) {
  Cursor c{body};
  if (!c.GetU64(&m->facts) || !c.GetU64(&m->epoch)) {
    return Malformed("truncated apply-result");
  }
  if (!c.done()) return Malformed("trailing bytes after apply-result");
  return Status::OK();
}

void EncodeRelationList(const std::vector<WireRelationInfo>& m,
                        std::string* body) {
  PutU32(body, static_cast<uint32_t>(m.size()));
  for (const WireRelationInfo& r : m) {
    PutStr(body, r.name);
    PutU32(body, r.arity);
    PutU64(body, r.rows);
  }
}

Status DecodeRelationList(std::string_view body,
                          std::vector<WireRelationInfo>* m) {
  Cursor c{body};
  uint32_t n = 0;
  if (!c.GetU32(&n)) return Malformed("truncated relation-list count");
  m->clear();
  for (uint32_t i = 0; i < n; ++i) {
    WireRelationInfo r;
    if (!c.GetStr(&r.name) || !c.GetU32(&r.arity) || !c.GetU64(&r.rows)) {
      return Malformed("truncated relation-list entry");
    }
    m->push_back(std::move(r));
  }
  if (!c.done()) return Malformed("trailing bytes after relation-list");
  return Status::OK();
}

void EncodeError(const WireError& m, std::string* body) {
  PutU16(body, static_cast<uint16_t>(m.code));
  PutStr(body, m.message);
  PutU32(body, m.retry_after_ms);
}

Status DecodeError(std::string_view body, WireError* m) {
  Cursor c{body};
  uint16_t code = 0;
  if (!c.GetU16(&code) || !c.GetStr(&m->message) ||
      !c.GetU32(&m->retry_after_ms)) {
    return Malformed("truncated error frame");
  }
  if (!c.done()) return Malformed("trailing bytes after error frame");
  m->code = static_cast<StatusCode>(code);
  return Status::OK();
}

Status WireErrorToStatus(const WireError& e) {
  // Codes above the newest this build knows come from a newer peer;
  // preserve the message but degrade the code to something actionable.
  if (e.code == StatusCode::kOk ||
      static_cast<int>(e.code) > static_cast<int>(StatusCode::kOverloaded)) {
    return Status::Internal("remote error with unknown code " +
                            std::to_string(static_cast<int>(e.code)) + ": " +
                            e.message);
  }
  return Status(e.code, e.message);
}

WireError StatusToWireError(const Status& s, uint32_t retry_after_ms) {
  WireError e;
  e.code = s.code();
  e.message = s.message();
  e.retry_after_ms = retry_after_ms;
  return e;
}

// ---------------------------------------------------------------------------
// Batch access

bool WireBatchAccess::HasLoadFile(const WriteBatch& batch) {
  for (const WriteBatch::Op& op : batch.ops_) {
    if (op.kind == WriteBatch::Op::kLoadFile) return true;
  }
  return false;
}

Result<WriteBatch> WireBatchAccess::CaptureLoadFiles(const WriteBatch& batch) {
  WriteBatch out;
  for (const WriteBatch::Op& op : batch.ops_) {
    if (op.kind != WriteBatch::Op::kLoadFile) {
      out.ops_.push_back(op);
      continue;
    }
    std::ifstream in(op.text, std::ios::binary);
    if (!in.is_open()) {
      return Status::NotFound("cannot read fact file '" + op.text +
                              "' for remote apply");
    }
    std::ostringstream contents;
    contents << in.rdbuf();
    if (in.bad()) {
      return Status::Internal("failed reading fact file '" + op.text + "'");
    }
    out.Facts(contents.str());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Frame I/O

std::string SerializeFrame(const Frame& frame) {
  std::string payload;
  payload.reserve(2 + frame.body.size());
  PutU8(&payload, kProtocolVersion);
  PutU8(&payload, static_cast<uint8_t>(frame.type));
  payload += frame.body;
  std::string bytes;
  bytes.reserve(8 + payload.size());
  PutU32(&bytes, static_cast<uint32_t>(payload.size()));
  PutU32(&bytes, durability::Crc32(payload.data(), payload.size()));
  bytes += payload;
  return bytes;
}

namespace {

/// Writes all of `data`, retrying short writes and EINTR. MSG_NOSIGNAL:
/// a peer that vanished mid-write surfaces as EPIPE, not SIGPIPE.
Status WriteAll(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::send(fd, data.data() + written,
                             data.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("socket write failed: ") +
                              std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads exactly `len` bytes. `*eof_at_start` is set when the peer closed
/// before the first byte (a clean close at a frame boundary when called
/// for a header).
Status ReadAll(int fd, char* buf, size_t len, bool* eof_at_start) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, buf + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("socket read failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && eof_at_start != nullptr) {
        *eof_at_start = true;
        return Status::NotFound(kCleanCloseMsg);
      }
      return Status::CorruptedLog("connection closed mid-frame (" +
                                  std::to_string(got) + " of " +
                                  std::to_string(len) + " bytes)");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status SendFrame(int fd, const Frame& frame, obs::Counter* bytes_out) {
  const std::string bytes = SerializeFrame(frame);
  GRAPHLOG_RETURN_NOT_OK(WriteAll(fd, bytes));
  if (bytes_out != nullptr) bytes_out->Add(bytes.size());
  return Status::OK();
}

Result<Frame> RecvFrame(int fd, obs::Counter* bytes_in) {
  char header[8];
  bool clean_eof = false;
  Status st = ReadAll(fd, header, 8, &clean_eof);
  if (!st.ok()) return st;
  uint32_t len = 0;
  uint32_t crc = 0;
  std::memcpy(&len, header, 4);
  std::memcpy(&crc, header + 4, 4);
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("frame of " + std::to_string(len) +
                                   " bytes exceeds the " +
                                   std::to_string(kMaxFrameBytes) +
                                   "-byte limit");
  }
  std::string payload(len, '\0');
  st = ReadAll(fd, payload.data(), len, nullptr);
  if (!st.ok()) return st;
  if (bytes_in != nullptr) bytes_in->Add(8 + static_cast<uint64_t>(len));
  if (durability::Crc32(payload.data(), payload.size()) != crc) {
    return Status::CorruptedLog("frame CRC mismatch");
  }
  Cursor c{payload};
  uint8_t version = 0;
  uint8_t type = 0;
  if (!c.GetU8(&version) || !c.GetU8(&type)) {
    return Status::CorruptedLog("frame too short for version + type");
  }
  if (version != kProtocolVersion) {
    return Status::Unsupported("protocol version " + std::to_string(version) +
                               " (this peer speaks " +
                               std::to_string(kProtocolVersion) + ")");
  }
  if (type > static_cast<uint8_t>(MsgType::kError)) {
    return Status::Unsupported("unknown frame type " + std::to_string(type));
  }
  Frame frame;
  frame.type = static_cast<MsgType>(type);
  frame.body = payload.substr(2);
  return frame;
}

bool IsCleanClose(const Status& s) {
  return s.code() == StatusCode::kNotFound && s.message() == kCleanCloseMsg;
}

}  // namespace graphlog::net
