#include "server/wire.h"

#include <cstring>

#include "storage/bytes.h"
#include "storage/column_codec.h"

namespace tpdb::server {

namespace {

using storage::ByteReader;
using storage::ByteWriter;
using storage::Crc32;
using storage::Crc32Update;

std::span<const uint8_t> AsBytes(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

/// CRC over the type byte followed by the payload — the frame trailer.
uint32_t FrameCrc(uint8_t type, std::string_view payload) {
  return Crc32Update(Crc32(std::span<const uint8_t>(&type, 1)),
                     AsBytes(payload));
}

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("malformed ") + what +
                                 " payload");
}

}  // namespace

void AppendFrame(MsgType type, std::string_view payload, std::string* out) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = FrameCrc(static_cast<uint8_t>(type), payload);
  out->reserve(out->size() + payload.size() + 9);
  out->append(reinterpret_cast<const char*>(&len), sizeof(len));
  out->push_back(static_cast<char>(type));
  out->append(payload);
  out->append(reinterpret_cast<const char*>(&crc), sizeof(crc));
}

Status FrameReader::Next(Frame* out, bool* have) {
  *have = false;
  // Compact the consumed prefix once it dominates the buffer, so a
  // long-lived connection does not grow its receive buffer forever.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  if (buffered() < sizeof(uint32_t)) return Status::OK();
  uint32_t len = 0;
  std::memcpy(&len, buf_.data() + pos_, sizeof(len));
  if (len > max_frame_bytes_)
    return Status::InvalidArgument(
        "protocol error: frame payload of " + std::to_string(len) +
        " bytes exceeds the " + std::to_string(max_frame_bytes_) +
        "-byte limit");
  const size_t total = sizeof(uint32_t) + 1 + len + sizeof(uint32_t);
  if (buffered() < total) return Status::OK();
  const char* frame = buf_.data() + pos_;
  const uint8_t type = static_cast<uint8_t>(frame[4]);
  const std::string_view payload(frame + 5, len);
  uint32_t crc = 0;
  std::memcpy(&crc, frame + 5 + len, sizeof(crc));
  if (crc != FrameCrc(type, payload))
    return Status::IOError("protocol error: frame CRC mismatch");
  out->type = static_cast<MsgType>(type);
  out->payload.assign(payload);
  pos_ += total;
  *have = true;
  return Status::OK();
}

// -- Typed payloads --------------------------------------------------------

std::string BuildHello(const HelloMsg& msg) {
  ByteWriter w;
  w.PutU32(msg.magic);
  w.PutU32(msg.version);
  w.PutString(msg.auth_token);
  w.PutString(msg.client_name);
  return std::move(w).TakeBuffer();
}

Status ParseHello(std::string_view payload, HelloMsg* out) {
  ByteReader r(AsBytes(payload));
  if (!r.GetU32(&out->magic).ok() || !r.GetU32(&out->version).ok() ||
      !r.GetString(&out->auth_token).ok() ||
      !r.GetString(&out->client_name).ok())
    return Truncated("Hello");
  return Status::OK();
}

std::string BuildHelloOk(const HelloOkMsg& msg) {
  ByteWriter w;
  w.PutU32(msg.version);
  w.PutString(msg.banner);
  return std::move(w).TakeBuffer();
}

Status ParseHelloOk(std::string_view payload, HelloOkMsg* out) {
  ByteReader r(AsBytes(payload));
  if (!r.GetU32(&out->version).ok() || !r.GetString(&out->banner).ok())
    return Truncated("HelloOk");
  return Status::OK();
}

std::string BuildQuery(const QueryMsg& msg) {
  ByteWriter w;
  w.PutU64(msg.query_id);
  w.PutString(msg.sql);
  return std::move(w).TakeBuffer();
}

Status ParseQuery(std::string_view payload, QueryMsg* out) {
  ByteReader r(AsBytes(payload));
  if (!r.GetU64(&out->query_id).ok() || !r.GetString(&out->sql).ok())
    return Truncated("Query");
  return Status::OK();
}

std::string BuildCancel(const CancelMsg& msg) {
  ByteWriter w;
  w.PutU64(msg.query_id);
  return std::move(w).TakeBuffer();
}

Status ParseCancel(std::string_view payload, CancelMsg* out) {
  ByteReader r(AsBytes(payload));
  if (!r.GetU64(&out->query_id).ok()) return Truncated("Cancel");
  return Status::OK();
}

std::string BuildAppend(const AppendMsg& msg) {
  ByteWriter w;
  w.PutU64(msg.query_id);
  w.PutString(msg.relation);
  w.PutU32(static_cast<uint32_t>(msg.rows.size()));
  for (const AppendRowMsg& row : msg.rows) {
    w.PutF64(row.prob);
    w.PutI64(row.ts);
    w.PutI64(row.te);
    w.PutString(row.var_name);
    w.PutU32(static_cast<uint32_t>(row.fact.size()));
    for (const Datum& d : row.fact) {
      // Lineage datums are not representable on the wire; the caller
      // (Client::Append) never produces them and the server re-validates.
      const Status st = storage::EncodeTaggedDatum(d, /*ids=*/nullptr, &w);
      TPDB_CHECK(st.ok());
    }
  }
  return std::move(w).TakeBuffer();
}

Status ParseAppend(std::string_view payload, AppendMsg* out) {
  ByteReader r(AsBytes(payload));
  uint32_t num_rows = 0;
  if (!r.GetU64(&out->query_id).ok() || !r.GetString(&out->relation).ok() ||
      !r.GetU32(&num_rows).ok())
    return Truncated("Append");
  if (num_rows > payload.size()) return Truncated("Append");
  out->rows.clear();
  out->rows.reserve(num_rows);
  for (uint32_t i = 0; i < num_rows; ++i) {
    AppendRowMsg row;
    uint32_t arity = 0;
    if (!r.GetF64(&row.prob).ok() || !r.GetI64(&row.ts).ok() ||
        !r.GetI64(&row.te).ok() || !r.GetString(&row.var_name).ok() ||
        !r.GetU32(&arity).ok())
      return Truncated("Append");
    if (arity > payload.size()) return Truncated("Append");
    row.fact.reserve(arity);
    for (uint32_t c = 0; c < arity; ++c) {
      Datum d;
      if (!storage::DecodeTaggedDatum(&r, /*ids=*/nullptr, &d).ok())
        return Truncated("Append");
      row.fact.push_back(std::move(d));
    }
    out->rows.push_back(std::move(row));
  }
  return Status::OK();
}

std::string BuildStats(const StatsMsg& msg) {
  ByteWriter w;
  w.PutU64(msg.query_id);
  return std::move(w).TakeBuffer();
}

Status ParseStats(std::string_view payload, StatsMsg* out) {
  ByteReader r(AsBytes(payload));
  if (!r.GetU64(&out->query_id).ok()) return Truncated("Stats");
  return Status::OK();
}

std::string BuildMetrics(const MetricsMsg& msg) {
  ByteWriter w;
  w.PutU64(msg.query_id);
  w.PutU8(static_cast<uint8_t>(msg.format));
  return std::move(w).TakeBuffer();
}

Status ParseMetrics(std::string_view payload, MetricsMsg* out) {
  ByteReader r(AsBytes(payload));
  uint8_t format = 0;
  if (!r.GetU64(&out->query_id).ok() || !r.GetU8(&format).ok())
    return Truncated("Metrics");
  if (format > static_cast<uint8_t>(MetricsFormat::kJson))
    return Status::InvalidArgument(
        "malformed Metrics payload: unknown format " + std::to_string(format));
  out->format = static_cast<MetricsFormat>(format);
  return Status::OK();
}

std::string BuildError(const ErrorMsg& msg) {
  ByteWriter w;
  w.PutU64(msg.query_id);
  w.PutU32(StatusCodeToWire(msg.code));
  w.PutString(msg.message);
  return std::move(w).TakeBuffer();
}

Status ParseError(std::string_view payload, ErrorMsg* out) {
  ByteReader r(AsBytes(payload));
  uint32_t code = 0;
  if (!r.GetU64(&out->query_id).ok() || !r.GetU32(&code).ok() ||
      !r.GetString(&out->message).ok())
    return Truncated("Error");
  out->code = StatusCodeFromWire(code);
  return Status::OK();
}

Status ErrorToStatus(const ErrorMsg& msg) {
  switch (msg.code) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(msg.message);
    case StatusCode::kNotFound:
      return Status::NotFound(msg.message);
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(msg.message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(msg.message);
    case StatusCode::kInternal:
      return Status::Internal(msg.message);
    case StatusCode::kIOError:
      return Status::IOError(msg.message);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(msg.message);
  }
  return Status::Internal(msg.message);
}

std::string BuildSchema(const SchemaMsg& msg) {
  ByteWriter w;
  w.PutU64(msg.query_id);
  w.PutU32(static_cast<uint32_t>(msg.schema.num_columns()));
  for (const Column& col : msg.schema.columns()) {
    w.PutString(col.name);
    w.PutU8(static_cast<uint8_t>(col.type));
  }
  return std::move(w).TakeBuffer();
}

Status ParseSchema(std::string_view payload, SchemaMsg* out) {
  ByteReader r(AsBytes(payload));
  uint32_t num_cols = 0;
  if (!r.GetU64(&out->query_id).ok() || !r.GetU32(&num_cols).ok())
    return Truncated("Schema");
  if (num_cols > payload.size())
    return Truncated("Schema");
  std::vector<Column> columns(num_cols);
  for (Column& col : columns) {
    uint8_t type = 0;
    if (!r.GetString(&col.name).ok() || !r.GetU8(&type).ok())
      return Truncated("Schema");
    if (type > static_cast<uint8_t>(DatumType::kLineage))
      return Status::InvalidArgument("malformed Schema payload: bad type tag");
    col.type = static_cast<DatumType>(type);
  }
  out->schema = Schema(std::move(columns));
  return Status::OK();
}

std::string BuildBatchPrefix(uint64_t query_id) {
  ByteWriter w;
  w.PutU64(query_id);
  return std::move(w).TakeBuffer();
}

Status ParseBatchPrefix(std::string_view payload, uint64_t* query_id,
                        std::string_view* batch_payload) {
  if (payload.size() < sizeof(uint64_t)) return Truncated("Batch");
  std::memcpy(query_id, payload.data(), sizeof(uint64_t));
  *batch_payload = payload.substr(sizeof(uint64_t));
  return Status::OK();
}

std::string BuildDone(const DoneMsg& msg) {
  ByteWriter w;
  w.PutU64(msg.query_id);
  w.PutU64(msg.total_rows);
  return std::move(w).TakeBuffer();
}

Status ParseDone(std::string_view payload, DoneMsg* out) {
  ByteReader r(AsBytes(payload));
  if (!r.GetU64(&out->query_id).ok() || !r.GetU64(&out->total_rows).ok())
    return Truncated("Done");
  return Status::OK();
}

std::string BuildPlanText(const PlanTextMsg& msg) {
  ByteWriter w;
  w.PutU64(msg.query_id);
  w.PutString(msg.text);
  return std::move(w).TakeBuffer();
}

Status ParsePlanText(std::string_view payload, PlanTextMsg* out) {
  ByteReader r(AsBytes(payload));
  if (!r.GetU64(&out->query_id).ok() || !r.GetString(&out->text).ok())
    return Truncated("PlanText");
  return Status::OK();
}

std::string BuildGoodbye(const std::string& reason) {
  ByteWriter w;
  w.PutString(reason);
  return std::move(w).TakeBuffer();
}

Status ParseGoodbye(std::string_view payload, std::string* reason) {
  ByteReader r(AsBytes(payload));
  if (!r.GetString(reason).ok()) return Truncated("Goodbye");
  return Status::OK();
}

uint32_t StatusCodeToWire(StatusCode code) {
  return static_cast<uint32_t>(code);
}

StatusCode StatusCodeFromWire(uint32_t wire) {
  if (wire > static_cast<uint32_t>(StatusCode::kResourceExhausted))
    return StatusCode::kInternal;
  return static_cast<StatusCode>(wire);
}

}  // namespace tpdb::server
