/**
 * @file
 * fpcprobe — live probe management on a running fpcserve.
 *
 * Speaks the fpc-serve-v1 PROBE op: attach a probe spec, detach one
 * by id, or read every attached probe's aggregations as an
 * fpc-probes-v1 document. Attach/detach take effect from the next
 * dispatched job; jobs already executing keep their snapshot and are
 * never interrupted, so probing a production daemon is safe:
 *
 *   fpcprobe --port=7533 attach 'entry:Primes.isPrime -> quantize(cycles)'
 *   fpcprobe --port=7533 read
 *   fpcprobe --port=7533 detach 1
 *
 * attach prints the assigned probe id (the handle detach wants) on
 * stdout; read prints the JSON document. Malformed specs are parsed
 * server-side: the server answers BAD_REQUEST with the parser's
 * diagnosis, which lands on stderr here.
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "options.hh"
#include "serve/client.hh"

using namespace fpc;

namespace
{

struct Options
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::string command;        ///< attach | detach | read
    std::string spec;           ///< attach
    std::uint32_t detachId = 0; ///< detach
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    cli::OptionTable t(argv[0],
                       {"--port=N [options] attach '<spec>'",
                        "--port=N [options] detach <id>",
                        "--port=N [options] read"},
                       "probe specs: '<site>{<predicate>,...} -> <action>', "
                       "e.g.\n"
                       "  'entry:Primes.isPrime -> count'\n"
                       "  'entry:Sort.* {depth<=8} -> quantize(cycles)'\n"
                       "  'xfer:return {tenant==gold} -> sum(refs)'\n");
    cli::addressOptions(t, opt.host, opt.port);
    const std::vector<std::string> positional = t.parse(argc, argv);
    if (opt.port == 0)
        t.fail("--port is required");
    const bool read = positional.size() == 1 && positional[0] == "read";
    if (!read && (positional.size() != 2 || (positional[0] != "attach" &&
                                              positional[0] != "detach")))
        t.fail("want attach '<spec>', detach <id> or read");
    opt.command = positional[0];
    if (opt.command == "attach")
        opt.spec = positional[1];
    if (opt.command == "detach" &&
        !cli::parseNumber(positional[1], opt.detachId))
        t.fail("bad probe id '" + positional[1] + "'");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
try {
    const Options opt = parseArgs(argc, argv);

    serve::Client client;
    std::string err;
    if (!client.connect(opt.host, opt.port, err)) {
        error("fpcprobe: {}", err);
        return 1;
    }

    if (opt.command == "attach") {
        serve::Reply reply;
        if (!client.probeAttach(opt.spec, reply)) {
            error("fpcprobe: connection lost during attach");
            return 1;
        }
        if (reply.status != serve::Status::ProbeText) {
            error("fpcprobe: attach refused: {}", reply.error);
            return 1;
        }
        std::cout << reply.probeId << "\n";
    } else if (opt.command == "detach") {
        serve::Reply reply;
        if (!client.probeDetach(opt.detachId, reply)) {
            error("fpcprobe: connection lost during detach");
            return 1;
        }
        if (reply.status != serve::Status::ProbeText) {
            error("fpcprobe: detach refused: {}", reply.error);
            return 1;
        }
    } else {
        std::string text;
        if (!client.probeRead(text)) {
            error("fpcprobe: read failed");
            return 1;
        }
        std::cout << text;
    }
    return 0;
} catch (const std::exception &err) {
    error("fpcprobe: {}", err.what());
    return 1;
}
