// ColumnBatch <-> bytes: the result-streaming codec of the wire protocol
// (server/), built on the same per-column encodings as the segment format
// (storage/column_codec.h) so columns serialize through one implementation.
//
// Payload layout:
//
//   u64 num_rows | u32 num_cols | column_0 | ... | column_{n-1}
//
// where each column is one storage/column_codec.h column (encoding byte,
// declared-type byte, data; alignment relative to the payload start).
// Encoding compacts the batch's selection vector: only active rows are
// written, in selection order — exactly the rows and order a consumer of
// the materialized batch would see.
//
// Decoding materializes an *owned* batch (no views into the payload), so
// the payload buffer may be discarded as soon as DecodeColumnBatch
// returns. A decoded batch re-encodes to byte-identical payload bytes
// (asserted by tests/server/batch_codec_test.cc).
#ifndef TPDB_STORAGE_BATCH_CODEC_H_
#define TPDB_STORAGE_BATCH_CODEC_H_

#include "common/status.h"
#include "engine/schema.h"
#include "engine/vector/column_batch.h"
#include "storage/bytes.h"
#include "storage/segment.h"

namespace tpdb::storage {

/// Appends the active rows of `batch` onto `w`. `schema` supplies the
/// declared column types (one per batch column); `ids`, when given, maps
/// lineage refs to snapshot-local ids — pass nullptr for the wire format
/// (raw arena ids, opaque to remote peers).
Status EncodeColumnBatch(const Schema& schema, const vec::ColumnBatch& batch,
                         const LineageIdMap* ids, ByteWriter* w);

/// Inverse of EncodeColumnBatch over one whole payload. The decoded batch
/// owns its storage (typed vectors, sel_all = true) and `payload` need not
/// outlive the call or be aligned.
Status DecodeColumnBatch(std::span<const uint8_t> payload,
                         const LineageIdMap* ids, vec::ColumnBatch* out);

}  // namespace tpdb::storage

#endif  // TPDB_STORAGE_BATCH_CODEC_H_
