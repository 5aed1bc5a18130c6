/**
 * @file
 * Wire codecs of the sharded solver's payloads that rank 0 and the
 * workers decode off the transport: kHalo ghost rows, kGather label
 * rows plus clone state, and the kRegistry metric delta.
 *
 * A payload comes off a socket, so every decoder treats it as hostile:
 * each label is checked against the label count and each count
 * against the bytes left before anything is stored or allocated, and
 * any defect ends the run through RETSIM_FATAL with a diagnostic that
 * names the payload and the sender — never an out-of-range label in
 * the energy tables or the output, never an allocation sized by a
 * corrupt field.
 */

#ifndef RETSIM_SHARD_PAYLOAD_CODEC_HH
#define RETSIM_SHARD_PAYLOAD_CODEC_HH

#include <cstdint>
#include <span>
#include <vector>

#include "img/image.hh"
#include "obs/metrics.hh"

namespace retsim {
namespace shard {
namespace detail {

/**
 * Decode @p peer's ghost row: the u32 row index, which must be
 * @p row, then out.size() i32 labels, each in [0, @p num_labels),
 * into @p out.
 */
void decodeGhostRow(std::span<const unsigned char> payload, int peer,
                    int row, int num_labels, std::span<int> out);

/**
 * Decode @p peer's GATHER: the u32 first row and row count, which
 * must be [@p row_begin, @p row_end), the rows' labels, each in
 * [0, @p num_labels), into @p labels, then a u32 stripe count, which
 * must be state.size(), and one saveState word vector per stripe
 * into @p state.
 */
void decodeGather(std::span<const unsigned char> payload, int peer,
                  int row_begin, int row_end, int num_labels,
                  img::LabelMap &labels,
                  std::span<std::vector<std::uint64_t>> state);

std::vector<unsigned char>
serializeRegistryDelta(const std::vector<obs::MetricSnapshot> &delta);

/** Inverse of serializeRegistryDelta. */
std::vector<obs::MetricSnapshot>
deserializeRegistryDelta(std::span<const unsigned char> payload);

} // namespace detail
} // namespace shard
} // namespace retsim

#endif // RETSIM_SHARD_PAYLOAD_CODEC_HH
