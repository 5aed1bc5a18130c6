#include "core/rsu_config.hh"

#include <sstream>

#include "ret/truncation.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace retsim {
namespace core {

std::string
toString(LambdaQuant v)
{
    switch (v) {
      case LambdaQuant::Pow2:
        return "pow2";
      case LambdaQuant::Integer:
        return "int";
      case LambdaQuant::Float:
        return "float";
    }
    return "unknown";
}

std::string
toString(TimeQuant v)
{
    switch (v) {
      case TimeQuant::Binned:
        return "binned";
      case TimeQuant::Float:
        return "float";
    }
    return "unknown";
}

std::string
toString(TieBreak v)
{
    switch (v) {
      case TieBreak::Random:
        return "random";
      case TieBreak::First:
        return "first";
      case TieBreak::Last:
        return "last";
    }
    return "unknown";
}

std::string
toString(RaceMode v)
{
    switch (v) {
      case RaceMode::Race:
        return "race";
      case RaceMode::FastPath:
        return "fastpath";
      case RaceMode::Auto:
        return "auto";
    }
    return "unknown";
}

double
RsuConfig::lambda0() const
{
    return ret::lambda0FromTruncation(truncation, tMaxBins());
}

std::uint32_t
RsuConfig::lambdaMax() const
{
    if (lambdaQuant == LambdaQuant::Pow2)
        return 1u << (lambdaBits - 1);
    return (1u << lambdaBits) - 1;
}

unsigned
RsuConfig::uniqueLambdas() const
{
    if (lambdaQuant == LambdaQuant::Pow2)
        return lambdaBits; // 1, 2, 4, ..., 2^(L-1)
    return (1u << lambdaBits) - 1;
}

void
RsuConfig::validate() const
{
    // Bad parameter values are user error (a config string or design
    // sweep gone wrong), not simulator bugs: report and exit cleanly.
    if (energyBits < 1 || energyBits > 16)
        RETSIM_FATAL("energyBits out of range: ", energyBits);
    if (lambdaBits < 1 || lambdaBits > 10)
        RETSIM_FATAL("lambdaBits out of range: ", lambdaBits);
    if (timeBits < 1 || timeBits > 16)
        RETSIM_FATAL("timeBits out of range: ", timeBits);
    if (!(truncation > 0.0 && truncation < 1.0))
        RETSIM_FATAL("truncation must lie in (0, 1): ", truncation);
    // Note: probability cut-off without decay-rate scaling is a valid
    // (if self-defeating) configuration — Fig. 5a evaluates it to show
    // that every label gets cut off early in annealing.
}

std::string
RsuConfig::describe() const
{
    // The toString() member shadows the namespace-scope enum
    // printers; take them through function pointers.
    std::string (*lq)(LambdaQuant) = &retsim::core::toString;
    std::string (*tq)(TimeQuant) = &retsim::core::toString;
    std::ostringstream oss;
    oss << "RSU-G{E=" << (floatEnergy ? "float" : std::to_string(
                                                      energyBits))
        << ",L=" << lambdaBits << '/' << lq(lambdaQuant)
        << (decayRateScaling ? ",scaled" : "")
        << (probabilityCutoff ? ",cutoff" : "")
        << ",T=" << timeBits << '/' << tq(timeQuant)
        << ",trunc=" << truncation;
    // Only a non-default race mode is part of the name: existing
    // sampler names (telemetry keys, report rows) stay stable.
    if (raceMode != RaceMode::Race)
        oss << ',' << retsim::core::toString(raceMode);
    oss << '}';
    return oss.str();
}

std::string
RsuConfig::toString() const
{
    // The member name shadows the namespace-scope enum printers;
    // take them through function pointers.
    std::string (*lq)(LambdaQuant) = &retsim::core::toString;
    std::string (*tq)(TimeQuant) = &retsim::core::toString;
    std::string (*tb)(TieBreak) = &retsim::core::toString;
    std::ostringstream oss;
    oss << "energy_bits=" << energyBits
        << " float_energy=" << (floatEnergy ? 1 : 0)
        << " lambda_bits=" << lambdaBits
        << " lambda_quant=" << lq(lambdaQuant)
        << " scaling=" << (decayRateScaling ? 1 : 0)
        << " cutoff=" << (probabilityCutoff ? 1 : 0)
        << " time_bits=" << timeBits
        << " time_quant=" << tq(timeQuant)
        << " truncation=" << truncation
        << " tie_break=" << tb(tieBreak)
        << " truncation_policy="
        << (truncationPolicy == TruncationPolicy::InfiniteTtf
                ? "infinite"
                : "clamp")
        << " race_mode=" << retsim::core::toString(raceMode);
    return oss.str();
}

RsuConfig
RsuConfig::fromString(const std::string &text)
{
    RsuConfig cfg = RsuConfig::newDesign();
    std::istringstream iss(text);
    std::string token;
    while (iss >> token) {
        auto eq = token.find('=');
        if (eq == std::string::npos)
            RETSIM_FATAL("malformed config token '", token, "'");
        std::string key = token.substr(0, eq);
        std::string value = token.substr(eq + 1);

        // Checked parses: std::sto* would throw an uncaught
        // invalid_argument / out_of_range on malformed text; these
        // reject the token (including trailing garbage and NaN/Inf)
        // and name the offending key=value pair.
        auto as_uint = [&] {
            unsigned long v = 0;
            if (!util::parseUnsigned(value, &v) || v > 0xffffffffUL) {
                RETSIM_FATAL("config key '", key,
                             "' expects an unsigned integer, got '",
                             value, "'");
            }
            return static_cast<unsigned>(v);
        };
        auto as_double = [&] {
            double v = 0.0;
            if (!util::parseDouble(value, &v)) {
                RETSIM_FATAL("config key '", key,
                             "' expects a finite number, got '", value,
                             "'");
            }
            return v;
        };
        auto as_bool = [&] { return value == "1" || value == "true"; };

        if (key == "energy_bits") {
            cfg.energyBits = as_uint();
        } else if (key == "float_energy") {
            cfg.floatEnergy = as_bool();
        } else if (key == "lambda_bits") {
            cfg.lambdaBits = as_uint();
        } else if (key == "lambda_quant") {
            if (value == "pow2")
                cfg.lambdaQuant = LambdaQuant::Pow2;
            else if (value == "int")
                cfg.lambdaQuant = LambdaQuant::Integer;
            else if (value == "float")
                cfg.lambdaQuant = LambdaQuant::Float;
            else
                RETSIM_FATAL("unknown lambda_quant '", value, "'");
        } else if (key == "scaling") {
            cfg.decayRateScaling = as_bool();
        } else if (key == "cutoff") {
            cfg.probabilityCutoff = as_bool();
        } else if (key == "time_bits") {
            cfg.timeBits = as_uint();
        } else if (key == "time_quant") {
            if (value == "binned")
                cfg.timeQuant = TimeQuant::Binned;
            else if (value == "float")
                cfg.timeQuant = TimeQuant::Float;
            else
                RETSIM_FATAL("unknown time_quant '", value, "'");
        } else if (key == "truncation") {
            cfg.truncation = as_double();
        } else if (key == "tie_break") {
            if (value == "random")
                cfg.tieBreak = TieBreak::Random;
            else if (value == "first")
                cfg.tieBreak = TieBreak::First;
            else if (value == "last")
                cfg.tieBreak = TieBreak::Last;
            else
                RETSIM_FATAL("unknown tie_break '", value, "'");
        } else if (key == "truncation_policy") {
            if (value == "infinite")
                cfg.truncationPolicy = TruncationPolicy::InfiniteTtf;
            else if (value == "clamp")
                cfg.truncationPolicy =
                    TruncationPolicy::ClampToLastBin;
            else
                RETSIM_FATAL("unknown truncation_policy '", value,
                             "'");
        } else if (key == "race_mode") {
            if (value == "race")
                cfg.raceMode = RaceMode::Race;
            else if (value == "fastpath")
                cfg.raceMode = RaceMode::FastPath;
            else if (value == "auto")
                cfg.raceMode = RaceMode::Auto;
            else
                RETSIM_FATAL("unknown race_mode '", value, "'");
        } else {
            RETSIM_FATAL("unknown config key '", key, "'");
        }
    }
    cfg.validate();
    return cfg;
}

RsuConfig
RsuConfig::previousDesign()
{
    RsuConfig cfg;
    cfg.energyBits = 8;
    cfg.lambdaBits = 4;
    cfg.lambdaQuant = LambdaQuant::Integer;
    cfg.decayRateScaling = false;
    cfg.probabilityCutoff = false; // clamp up to lambda_0 instead
    cfg.timeBits = 5;
    cfg.timeQuant = TimeQuant::Binned;
    cfg.truncation = 0.004; // 4 RET replicas cover 99.6% of samples
    return cfg;
}

RsuConfig
RsuConfig::newDesign()
{
    RsuConfig cfg;
    cfg.energyBits = 8;
    cfg.lambdaBits = 4;
    cfg.lambdaQuant = LambdaQuant::Pow2;
    cfg.decayRateScaling = true;
    cfg.probabilityCutoff = true;
    cfg.timeBits = 5;
    cfg.timeQuant = TimeQuant::Binned;
    cfg.truncation = 0.5;
    return cfg;
}

} // namespace core
} // namespace retsim
