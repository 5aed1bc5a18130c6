#include "shard/payload_codec.hh"

#include "util/checkpoint.hh"
#include "util/logging.hh"

namespace retsim {
namespace shard {
namespace detail {

namespace {

/** Read one label and fail unless it lies in [0, num_labels). */
int
readLabel(util::ByteReader &rd, int num_labels, const char *what,
          int peer, int x, int y)
{
    const int v = rd.i32();
    if (v < 0 || v >= num_labels)
        RETSIM_FATAL("shard: ", what, " from rank ", peer,
                     " carries label ", v, " at (", x, ", ", y,
                     "), outside [0, ", num_labels, ")");
    return v;
}

/** Fewest bytes one serialized metric occupies: kind, name length,
 *  and an 8-byte value (a histogram needs more). */
constexpr std::uint64_t kMinMetricBytes = 1 + 8 + 8;

} // namespace

void
decodeGhostRow(std::span<const unsigned char> payload, int peer,
               int row, int num_labels, std::span<int> out)
{
    const std::size_t expected = 4 + 4 * out.size();
    if (payload.size() != expected)
        RETSIM_FATAL("shard: malformed halo from rank ", peer, ": ",
                     payload.size(), " bytes, expected ", expected);
    util::ByteReader rd(payload);
    const int y = static_cast<int>(rd.u32());
    if (y != row)
        RETSIM_FATAL("shard: halo from rank ", peer, " carries row ",
                     y, ", expected row ", row);
    for (std::size_t x = 0; x < out.size(); ++x)
        out[x] = readLabel(rd, num_labels, "halo", peer,
                           static_cast<int>(x), y);
}

void
decodeGather(std::span<const unsigned char> payload, int peer,
             int row_begin, int row_end, int num_labels,
             img::LabelMap &labels,
             std::span<std::vector<std::uint64_t>> state)
{
    util::ByteReader rd(payload);
    const int glo = static_cast<int>(rd.u32());
    const int rows = static_cast<int>(rd.u32());
    if (!rd.ok() || glo != row_begin || rows != row_end - row_begin)
        RETSIM_FATAL("shard: GATHER from rank ", peer,
                     " carries rows [", glo, ", ", glo + rows,
                     "), expected [", row_begin, ", ", row_end, ")");
    for (int y = row_begin; y < row_end; ++y)
        for (int x = 0; x < labels.width(); ++x)
            labels(x, y) =
                readLabel(rd, num_labels, "GATHER", peer, x, y);
    const std::uint32_t nk = rd.u32();
    if (nk != state.size())
        RETSIM_FATAL("shard: GATHER from rank ", peer, " carries ", nk,
                     " stripe states, expected ", state.size());
    for (std::vector<std::uint64_t> &s : state)
        s = rd.words();
    if (!rd.ok() || !rd.atEnd())
        RETSIM_FATAL("shard: malformed GATHER from rank ", peer);
}

std::vector<unsigned char>
serializeRegistryDelta(const std::vector<obs::MetricSnapshot> &delta)
{
    util::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(delta.size()));
    for (const obs::MetricSnapshot &m : delta) {
        w.u8(static_cast<std::uint8_t>(m.kind));
        w.str(m.name);
        switch (m.kind) {
        case obs::MetricKind::Counter:
            w.u64(m.counter);
            break;
        case obs::MetricKind::Histogram: {
            w.u32(static_cast<std::uint32_t>(
                m.histogram.bounds.size()));
            for (double b : m.histogram.bounds)
                w.f64(b);
            for (std::uint64_t c : m.histogram.counts)
                w.u64(c);
            w.f64(m.histogram.sum);
            w.u64(m.histogram.count);
            break;
        }
        case obs::MetricKind::Gauge:
            w.f64(m.gauge);
            break;
        }
    }
    return w.take();
}

std::vector<obs::MetricSnapshot>
deserializeRegistryDelta(std::span<const unsigned char> payload)
{
    util::ByteReader rd(payload);
    const std::uint32_t n = rd.u32();
    if (n > rd.remaining() / kMinMetricBytes)
        RETSIM_FATAL("shard: registry delta claims ", n,
                     " metrics in ", rd.remaining(), " bytes");
    std::vector<obs::MetricSnapshot> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n && rd.ok(); ++i) {
        obs::MetricSnapshot m;
        const std::uint8_t kind = rd.u8();
        if (kind >
            static_cast<std::uint8_t>(obs::MetricKind::Histogram))
            RETSIM_FATAL("shard: registry delta metric ", i,
                         " has unknown kind ", static_cast<int>(kind));
        m.kind = static_cast<obs::MetricKind>(kind);
        m.name = rd.str();
        switch (m.kind) {
        case obs::MetricKind::Counter:
            m.counter = rd.u64();
            break;
        case obs::MetricKind::Histogram: {
            const std::uint32_t nb = rd.u32();
            // nb bounds, nb + 1 counts, sum and count: 8 bytes each.
            if (16 * static_cast<std::uint64_t>(nb) + 24 >
                rd.remaining())
                RETSIM_FATAL("shard: registry delta histogram '",
                             m.name, "' claims ", nb, " bounds in ",
                             rd.remaining(), " bytes");
            m.histogram = obs::HistogramData{};
            m.histogram.bounds.resize(nb);
            for (std::uint32_t j = 0; j < nb; ++j)
                m.histogram.bounds[j] = rd.f64();
            m.histogram.counts.resize(nb + 1);
            for (std::uint32_t j = 0; j <= nb; ++j)
                m.histogram.counts[j] = rd.u64();
            m.histogram.sum = rd.f64();
            m.histogram.count = rd.u64();
            break;
        }
        case obs::MetricKind::Gauge:
            m.gauge = rd.f64();
            break;
        }
        out.push_back(std::move(m));
    }
    if (!rd.ok() || !rd.atEnd())
        RETSIM_FATAL("shard: malformed registry delta");
    return out;
}

} // namespace detail
} // namespace shard
} // namespace retsim
