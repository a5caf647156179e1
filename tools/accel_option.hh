/**
 * @file
 * The --accel option shared by the drivers (fpcvm, fpcrun, fpcserve,
 * fpcreplay): its parser and the warning for a backend that an
 * attached observer demotes.
 */

#ifndef FPC_TOOLS_ACCEL_OPTION_HH
#define FPC_TOOLS_ACCEL_OPTION_HH

#include <optional>
#include <string_view>

#include "common/logging.hh"
#include "machine/machine.hh"

namespace fpc
{

/** Value of --accel=: "on" enables host acceleration, "off" disables
 *  it, and "threaded" is accepted as a synonym of "on" so older
 *  command lines keep working. Anything else is a usage error
 *  (nullopt). */
inline std::optional<bool>
parseAccelOption(std::string_view value)
{
    if (value == "on" || value == "threaded")
        return true;
    if (value == "off")
        return false;
    return std::nullopt;
}

/** Say once, up front, when an attached XFER observer will demote the
 *  accelerated backend to the eager loop (Machine::accelDemoted, the
 *  predicate run() gates on), rather than letting an accelerated run
 *  silently lose its speedup. `flags` names the driver's observing
 *  options; `hint` is appended to the message. */
inline void
warnAccelDemoted(std::string_view tool, const AccelConfig &accel,
                 bool observed, std::string_view flags,
                 std::string_view hint = "")
{
    if (Machine::accelDemoted(accel, observed))
        warn("{}: {} observe every XFER, which forces the eager loop; "
             "--accel=on keeps only its XFER caches{}",
             tool, flags, hint);
}

} // namespace fpc

#endif // FPC_TOOLS_ACCEL_OPTION_HH
