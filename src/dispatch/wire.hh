/**
 * @file
 * The dispatch wire protocol: length-prefixed newline-JSON frames over
 * pipes between the coordinator and its worker processes.
 *
 * One frame is `<decimal byte length>\n<json>\n`. The length prefix
 * makes framing trivial and the trailing newline keeps a captured
 * stream human-readable (`stems worker` under a terminal prints one
 * JSON document per line).
 *
 * Message flow:
 *   coordinator -> worker:  init, cell*, shutdown
 *   worker -> coordinator:  ready, heartbeat*, result*
 *
 * Since protocol v5, the coordinator may request liveness heartbeats
 * (init "heartbeat_ms" > 0): a worker thread then emits "heartbeat"
 * frames on that period, letting the coordinator kill a wedged worker
 * fast without any per-cell timeout — a slow cell keeps heartbeating,
 * a hung process does not. Cell jobs also carry the coordinator's
 * attempt number ("attempt", a sibling of the "cell" object so cell
 * fingerprints stay attempt-independent), which seeds deterministic
 * fault injection (src/fault/) and first-attempt-only chaos clauses.
 *
 * Doubles (uIPC, wall times) travel as C99 hexfloat strings so metric
 * values survive the round trip bit-exactly — the merged report must
 * be byte-identical to a single-process run.
 *
 * Init carries "trace" (enable the worker's span recorder) and result
 * carries "telemetry" — the worker's per-cell phase wall times, a
 * process counter snapshot, peak RSS, and (when tracing) its buffered
 * spans, which the coordinator re-tags with the worker pid and merges
 * into one machine-wide trace timeline.
 *
 * With stream=1 the coordinator sends "prefetch" frames naming cells
 * from the scheduler's lookahead, and the worker warms their traces
 * on a driver::TracePrefetcher (started by the first hint) while the
 * current cell simulates. Prefetch is advisory — it never produces a
 * result frame and a worker that ignores it is still correct.
 *
 * Both ends run the same binary and the hello/init handshake demands
 * an exact protocol match, so every field a message defines is
 * required: a frame missing one is a protocol error. The same
 * protocol constant versions the serve-layer socket hello handshake
 * (src/serve/), so a pipe coordinator and a socket daemon can never
 * silently disagree about frame contents.
 *
 * Since protocol v3, result metrics are schema-driven: the encoder
 * iterates the MetricSchema and writes every present family under its
 * canonical name with a kind-appropriate encoding (counters as
 * numbers, values as hexfloat strings, histograms/vectors as arrays,
 * timing passes as mixed arrays). Ratio families never travel — they
 * are derived from the folded operands on both ends. A new metric
 * family therefore rides the wire with no protocol edit.
 */

#ifndef STEMS_DISPATCH_WIRE_HH
#define STEMS_DISPATCH_WIRE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dispatch/json.hh"
#include "driver/executor.hh"
#include "driver/spec.hh"

namespace stems::dispatch {

/** Wire protocol version; bumped on incompatible message changes. */
constexpr uint32_t kProtocolVersion = 7;

/** Spec-global settings shipped to a worker before any cells. */
struct WorkerInit
{
    uint32_t protocol = kProtocolVersion;
    std::string traceDir;  //!< shared .stmt spill dir ("" = live gen)
    std::vector<uint32_t> oracleRegionSizes;
    bool trace = false;    //!< enable the worker's span recorder
    uint32_t heartbeatMs = 0;  //!< liveness frame period (0 = off)
};

// message payloads (each is one self-contained JSON document)

std::string encodeInit(const WorkerInit &init);
WorkerInit decodeInit(const JsonValue &msg);

std::string encodeReady(int pid);

/**
 * @param attempt the coordinator's 1-based try counter for this cell,
 *        shipped OUTSIDE the "cell" object so the cell encoding (and
 *        hence journal spec fingerprints) stays attempt-independent
 */
std::string encodeCellJob(const driver::RunCell &cell,
                          uint32_t attempt = 1);
driver::RunCell decodeCellJob(const JsonValue &msg);

/** The "attempt" field of a cell job. */
uint32_t decodeCellAttempt(const JsonValue &msg);

/**
 * Advisory lookahead hint: the worker should warm @p cell's
 * trace in the background. Decoded with decodeCellJob (the "cell"
 * object layout is shared with cell jobs).
 */
std::string encodePrefetch(const driver::RunCell &cell);

std::string encodeHeartbeat();

std::string encodeResult(const driver::CellResult &result);
/** Decodes metrics/error; the cell field carries only the id. */
driver::CellResult decodeResult(const JsonValue &msg);

std::string encodeShutdown();

/** The "type" member of a decoded message. */
const std::string &messageType(const JsonValue &msg);

// framing

/**
 * Incremental frame splitter: feed() raw pipe bytes, next() yields
 * complete JSON payloads as they become available.
 */
class FrameDecoder
{
  public:
    void feed(const char *data, size_t len) { buf.append(data, len); }

    /**
     * Extract the next complete frame into @p out.
     * @return true when a frame was produced.
     * Throws std::invalid_argument on a corrupt length prefix.
     */
    bool next(std::string &out);

  private:
    std::string buf;
    size_t consumed = 0;
};

/** The raw bytes of one frame: `<len>\n<payload>\n`. */
std::string frameBytes(const std::string &payload);

/**
 * Write all of @p bytes, handling partial writes and EINTR.
 * @return false when the peer is gone or the write fails.
 */
bool writeAll(int fd, const std::string &bytes);

/**
 * Write one frame (frameBytes + writeAll).
 * @return false when the peer is gone (EPIPE/closed fd).
 */
bool writeFrame(int fd, const std::string &payload);

/**
 * Blocking read of the next frame from @p fd.
 * @return false on EOF or read error.
 */
bool readFrame(int fd, FrameDecoder &decoder, std::string &out);

} // namespace stems::dispatch

#endif // STEMS_DISPATCH_WIRE_HH
