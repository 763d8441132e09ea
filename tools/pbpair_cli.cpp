// pbpair — command-line front end to the library.
//
//   pbpair encode --in clip.yuv --width 176 --height 144 --out clip.pbs
//                 [--qp 10] [--intra-th 0.9] [--plr 0.1] [--scheme pbpair|
//                  no|gop-N|air-N|pgop-N] [--rate-kbps K] [--deblocking]
//   pbpair decode --in clip.pbs --out clip.yuv [--deblocking]
//   pbpair simulate [--clip foreman|akiyo|garden] [--frames 120]
//                   [--plr 0.1] [--scheme ...] [--intra-th 0.9]
//                   [--mtu 1400] [--seed 2005] [--qp 10] [--crc]
//                   [--trace] [--trace-json t.json] [--metrics-json m.json]
//                   [--frame-trace f.jsonl] [--deterministic]
//   pbpair serve    --sessions N [--frames 60] [--plr 0.1] [--scheme ...]
//                   [--intra-th 0.9] [--threads T] [--slice K] [--rtt R]
//                   [--seed 2005] [--qp 10] [--crc] [--metrics-port P|auto]
//                   [--metrics-linger SEC]
//   pbpair monitor  --port P [--host H] [--interval SEC]
//                   | --from scrape1.txt --to scrape2.txt [--interval SEC]
//   pbpair fuzz     [--seed 2005] [--iters 2000] [--fuzz-target all|...]
//                   [--crash-dir DIR]
//
// encode/decode work on real raw 4:2:0 material through the PBS container;
// simulate runs the full lossy pipeline on a synthetic clip and prints the
// result row; serve multiplexes N concurrent stream sessions (clips
// rotating over the paper's three, per-session seeds) across the shard
// workers and prints per-session rows plus the deterministic aggregate
// (DESIGN.md §9). The observability flags (DESIGN.md §8) enable the
// metrics layer: --trace turns it on (as does PBPAIR_TRACE=1), the
// *-json flags export what was collected, and --deterministic restricts
// the metrics JSON to the counters that are a pure function of the
// workload. Trace spans are captured only when --trace-json will write
// them. Live telemetry (DESIGN.md §10): serve tracks per-session
// health and, with --metrics-port, exposes GET /metrics (Prometheus text)
// and GET /healthz on 127.0.0.1; monitor scrapes twice and prints the
// per-session delta table. --log-json / --verbose / --log-level control
// the structured log stream (obs/log.h).
//
// Hostile-byte handling (DESIGN.md §11): the --fault-* flags on simulate
// and serve insert a seeded net::FaultInjector after the loss model (bit
// flips, truncation, header corruption, duplication, reordering), monitor
// prints a damage line when fault counters moved between scrapes, and
// `pbpair fuzz` replays the seeded robustness campaign that CI runs under
// ASan/UBSan.
//
// Wire integrity (DESIGN.md §13): --crc puts an 8-byte CRC64 trailer on
// every packet and runs the verify_integrity stage, so damage that
// reaches the receiver is classified corrupted (net.crc.corrupted) rather
// than folded into loss. monitor then grows lost/s + corrupt/s columns and
// a wire line with CRC verdict rates and net.wire.ns p50/p99 latency.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "codec/container.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/rate_control.h"
#include "common/args.h"
#include "common/json.h"
#include "net/loss_model.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/http_exporter.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "net/fault_injector.h"
#include "sim/fuzzer.h"
#include "sim/pipeline.h"
#include "sim/report.h"
#include "sim/session_manager.h"
#include "video/yuv_io.h"

using namespace pbpair;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: pbpair <encode|decode|simulate|serve|monitor|fuzz> [--flags]\n"
      "  encode   --in f.yuv --width W --height H --out f.pbs\n"
      "           [--qp N] [--scheme S] [--intra-th X] [--plr X]\n"
      "           [--rate-kbps K] [--deblocking]\n"
      "  decode   --in f.pbs --out f.yuv [--deblocking]\n"
      "  simulate [--clip C] [--frames N] [--plr X] [--scheme S]\n"
      "           [--intra-th X] [--mtu N] [--seed N] [--qp N] [--crc]\n"
      "           [--trace] [--trace-json FILE] [--metrics-json FILE]\n"
      "           [--frame-trace FILE] [--deterministic]\n"
      "  serve    --sessions N [--frames N] [--plr X] [--scheme S]\n"
      "           [--intra-th X] [--threads T] [--slice K] [--rtt R]\n"
      "           [--seed N] [--qp N] [--crc] [--metrics-port P|auto]\n"
      "           [--metrics-linger SEC] [--flight-dir DIR]\n"
      "           [--admit-live N] [--admit-queue N] [--sheddable]\n"
      "           (admission: --admit-live caps constructed sessions per\n"
      "           shard, --admit-queue sheds/queues past that pinned depth,\n"
      "           --sheddable marks sessions DEGRADED-eligible for shedding)\n"
      "           (exporter also serves /healthz and /flightrecorder[/S])\n"
      "  monitor  --port P [--host H] [--interval SEC] [--json]\n"
      "           | --from scrape1.txt --to scrape2.txt [--interval SEC]\n"
      "  fuzz     [--seed N] [--iters N] [--crash-dir DIR]\n"
      "           [--fuzz-target all|bitreader|decoder|depacketize|\n"
      "                         packet|fec|wire|prometheus|json]\n"
      "  common:  [--log-json FILE] [--log-level debug|info|warn|error]\n"
      "           [--verbose]\n"
      "  faults (simulate/serve): [--fault-bit-flip X] [--fault-truncate X]\n"
      "           [--fault-header X] [--fault-duplicate X]\n"
      "           [--fault-reorder X] [--fault-seed N]\n"
      "  fec (simulate/serve): [--fec-m M] [--fec-k K] [--fec-scheme xor|rs]\n"
      "           (m=0, the default, skips both FEC stages)\n"
      "  wire (simulate/serve): [--crc] frames every packet with a CRC64\n"
      "           trailer; corrupted deliveries drop to erasures and are\n"
      "           counted apart from losses (off keeps the classic bytes)\n"
      "  schemes: pbpair (default), no, gop-N, air-N, pgop-N\n");
  return 2;
}

/// Applies the shared logging flags: --verbose (info level), --log-level,
/// --log-json FILE, and --deterministic (reproducible records).
bool apply_log_flags(const common::ArgParser& args) {
  if (args.has("verbose")) obs::set_log_min_level(obs::LogLevel::kInfo);
  const std::string level = args.get("log-level");
  if (level == "debug") {
    obs::set_log_min_level(obs::LogLevel::kDebug);
  } else if (level == "info") {
    obs::set_log_min_level(obs::LogLevel::kInfo);
  } else if (level == "warn") {
    obs::set_log_min_level(obs::LogLevel::kWarn);
  } else if (level == "error") {
    obs::set_log_min_level(obs::LogLevel::kError);
  } else if (!level.empty()) {
    std::fprintf(stderr, "unknown --log-level %s\n", level.c_str());
    return false;
  }
  if (args.has("deterministic")) obs::set_log_deterministic(true);
  const std::string log_json = args.get("log-json");
  if (!log_json.empty() && !obs::set_log_json_path(log_json)) {
    std::fprintf(stderr, "cannot open %s for logging\n", log_json.c_str());
    return false;
  }
  return true;
}

/// Reads the --fault-* flags into PipelineConfig::faults. Returns the
/// configured injector (unset when every probability is zero, keeping the
/// pipeline byte-identical to a build without the injector).
void apply_fault_flags(const common::ArgParser& args,
                       sim::PipelineConfig* config) {
  net::FaultInjectorConfig faults;
  faults.p_bit_flip = args.get_double("fault-bit-flip", 0.0);
  faults.p_truncate = args.get_double("fault-truncate", 0.0);
  faults.p_header_corrupt = args.get_double("fault-header", 0.0);
  faults.p_duplicate = args.get_double("fault-duplicate", 0.0);
  faults.p_reorder = args.get_double("fault-reorder", 0.0);
  faults.seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 1));
  if (faults.enabled()) config->faults = faults;
}

/// Reads the --fec-* flags into PipelineConfig::fec. --fec-m 0 (the
/// default) leaves the optional unset, so no FEC stage runs and every
/// output byte matches a FEC-free build. Returns false on a bad value.
bool apply_fec_flags(const common::ArgParser& args,
                     sim::PipelineConfig* config) {
  net::FecConfig fec;
  fec.m = args.get_int("fec-m", 0);
  fec.k = args.get_int("fec-k", 8);
  const std::string scheme = args.get("fec-scheme", "rs");
  if (scheme == "rs") {
    fec.scheme = net::FecScheme::kReedSolomon;
  } else if (scheme == "xor") {
    fec.scheme = net::FecScheme::kXorParity;
  } else {
    std::fprintf(stderr, "unknown --fec-scheme %s (want xor|rs)\n",
                 scheme.c_str());
    return false;
  }
  if (fec.m < 0 || fec.m > static_cast<int>(net::kMaxFecM) ||
      fec.k < 1 || fec.k > static_cast<int>(net::kMaxFecK) ||
      (fec.scheme == net::FecScheme::kXorParity && fec.m > 1)) {
    std::fprintf(stderr,
                 "bad FEC geometry: --fec-k in [1,%d], --fec-m in [0,%d], "
                 "xor allows m<=1\n",
                 static_cast<int>(net::kMaxFecK),
                 static_cast<int>(net::kMaxFecM));
    return false;
  }
  if (fec.enabled()) config->fec = fec;
  return true;
}

/// Surfaces span-buffer overflow after a trace export: a truncated trace
/// silently missing spans is worse than a loud one.
void warn_if_spans_dropped() {
  const std::uint64_t dropped =
      obs::counter("obs.trace.dropped").value();
  if (dropped > 0) {
    std::printf("warning: %llu spans dropped (buffer full); trace is "
                "truncated\n",
                static_cast<unsigned long long>(dropped));
  }
}

/// Parses "pbpair" / "no" / "gop-3" / "air-24" / "pgop-1" etc.
bool parse_scheme(const std::string& text, double intra_th, double plr,
                  sim::SchemeSpec* spec) {
  if (text == "pbpair" || text.empty()) {
    core::PbpairConfig config;
    config.intra_th = intra_th;
    config.plr = plr;
    *spec = sim::SchemeSpec::pbpair(config);
    return true;
  }
  if (text == "no") {
    *spec = sim::SchemeSpec::no_resilience();
    return true;
  }
  auto dash = text.find('-');
  if (dash == std::string::npos) return false;
  std::string kind = text.substr(0, dash);
  int param = std::atoi(text.c_str() + dash + 1);
  if (param <= 0) return false;
  if (kind == "gop") {
    *spec = sim::SchemeSpec::gop(param);
  } else if (kind == "air") {
    *spec = sim::SchemeSpec::air(param);
  } else if (kind == "pgop") {
    *spec = sim::SchemeSpec::pgop(param);
  } else {
    return false;
  }
  return true;
}

int cmd_encode(const common::ArgParser& args) {
  const std::string in = args.get("in");
  const std::string out = args.get("out");
  const int width = args.get_int("width", 176);
  const int height = args.get_int("height", 144);
  if (in.empty() || out.empty()) return usage();
  if (width % 16 != 0 || height % 16 != 0 || width <= 0 || height <= 0) {
    std::fprintf(stderr, "width/height must be positive multiples of 16\n");
    return 1;
  }

  std::vector<video::YuvFrame> frames = video::read_yuv_file(in, width, height);
  if (frames.empty()) {
    std::fprintf(stderr, "no %dx%d frames readable from %s\n", width, height,
                 in.c_str());
    return 1;
  }

  sim::SchemeSpec scheme;
  if (!parse_scheme(args.get("scheme", "pbpair"),
                    args.get_double("intra-th", 0.9),
                    args.get_double("plr", 0.1), &scheme)) {
    return usage();
  }
  auto policy = sim::make_policy(scheme, width / 16, height / 16);

  codec::EncoderConfig econfig;
  econfig.width = width;
  econfig.height = height;
  econfig.qp = args.get_int("qp", 10);
  econfig.deblocking = args.has("deblocking");
  codec::Encoder encoder(econfig, policy.get());

  std::unique_ptr<codec::RateController> rate;
  if (args.has("rate-kbps")) {
    codec::RateControlConfig rconfig;
    rconfig.target_kbps = args.get_double("rate-kbps", 64.0);
    rconfig.initial_qp = econfig.qp;
    rate = std::make_unique<codec::RateController>(rconfig);
  }

  codec::ContainerWriter writer(
      out, codec::ContainerHeader{width, height, econfig.qp});
  if (!writer.is_open()) {
    std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
    return 1;
  }
  std::uint64_t bytes = 0;
  for (const video::YuvFrame& frame : frames) {
    if (rate) encoder.set_qp(rate->qp());
    codec::EncodedFrame encoded = encoder.encode_frame(frame);
    if (rate) {
      rate->on_frame_encoded(encoded.size_bytes(),
                             encoded.type == codec::FrameType::kIntra);
    }
    bytes += encoded.size_bytes();
    if (!writer.write_frame(encoded)) {
      std::fprintf(stderr, "write error on %s\n", out.c_str());
      return 1;
    }
  }
  if (!writer.close()) return 1;
  std::printf("encoded %zu frames (%s, QP %d%s) -> %s, %.1f KB\n",
              frames.size(), scheme.label().c_str(), econfig.qp,
              rate ? ", rate-controlled" : "", out.c_str(), bytes / 1024.0);
  return 0;
}

int cmd_decode(const common::ArgParser& args) {
  const std::string in = args.get("in");
  const std::string out = args.get("out");
  if (in.empty() || out.empty()) return usage();
  codec::ContainerReader reader(in);
  if (!reader.is_open()) {
    std::fprintf(stderr, "cannot read container %s\n", in.c_str());
    return 1;
  }
  codec::DecoderConfig dconfig;
  dconfig.width = reader.header().width;
  dconfig.height = reader.header().height;
  dconfig.deblocking = args.has("deblocking");
  codec::Decoder decoder(dconfig);
  std::vector<video::YuvFrame> frames;
  codec::ReceivedFrame frame;
  while (reader.read_frame(&frame)) {
    frames.push_back(decoder.decode_frame(frame));
  }
  if (frames.empty()) {
    std::fprintf(stderr, "no frames decoded from %s\n", in.c_str());
    return 1;
  }
  if (!video::write_yuv_file(out, frames)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("decoded %zu frames of %dx%d -> %s\n", frames.size(),
              dconfig.width, dconfig.height, out.c_str());
  return 0;
}

int cmd_simulate(const common::ArgParser& args) {
  if (!apply_log_flags(args)) return 1;
  video::SequenceKind kind = video::SequenceKind::kForemanLike;
  std::string clip = args.get("clip", "foreman");
  if (clip == "akiyo") kind = video::SequenceKind::kAkiyoLike;
  if (clip == "garden") kind = video::SequenceKind::kGardenLike;

  const double plr = args.get_double("plr", 0.10);
  sim::SchemeSpec scheme;
  if (!parse_scheme(args.get("scheme", "pbpair"),
                    args.get_double("intra-th", 0.9), plr, &scheme)) {
    return usage();
  }

  // Observability: --trace (or PBPAIR_TRACE=1) turns the layer on; any
  // export flag implies it, since an empty trace helps nobody. Spans are
  // captured only for --trace-json, the one output that reads them.
  const std::string trace_json = args.get("trace-json");
  const std::string metrics_json = args.get("metrics-json");
  const std::string frame_trace = args.get("frame-trace");
  if (args.has("trace") || !trace_json.empty() || !metrics_json.empty() ||
      !frame_trace.empty()) {
    obs::set_enabled(true);
    obs::set_thread_name("pbpair-simulate");
  }
  if (!trace_json.empty()) obs::set_trace_capture(true);

  sim::PipelineConfig config;
  config.frames = args.get_int("frames", 120);
  config.encoder.qp = args.get_int("qp", 10);
  config.packetizer.mtu = static_cast<std::size_t>(args.get_int("mtu", 1400));
  config.frame_trace_path = frame_trace;
  config.frame_trace_seed =
      static_cast<std::uint64_t>(args.get_int("seed", 2005));
  apply_fault_flags(args, &config);
  if (!apply_fec_flags(args, &config)) return 2;
  // Leaving the optional unset (no --crc) skips verify_integrity and keeps
  // every output byte identical to a build without wire framing.
  if (args.has("crc")) config.wire = net::WireConfig{};

  video::SyntheticSequence sequence = video::make_paper_sequence(kind);
  net::UniformFrameLoss loss(plr, static_cast<std::uint64_t>(
                                      args.get_int("seed", 2005)));
  sim::PipelineResult r = sim::run_pipeline(sequence, scheme, &loss, config);

  if (!metrics_json.empty()) {
    std::FILE* f = std::fopen(metrics_json.c_str(), "w");
    if (f == nullptr) {
      PB_LOG_ERROR("cannot write %s", metrics_json.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n",
                 obs::Registry::global()
                     .to_json(/*deterministic=*/args.has("deterministic"))
                     .c_str());
    std::fclose(f);
    std::printf("metrics -> %s\n", metrics_json.c_str());
  }
  if (!trace_json.empty()) {
    if (!obs::write_chrome_trace(trace_json)) {
      PB_LOG_ERROR("cannot write %s", trace_json.c_str());
      return 1;
    }
    std::printf("trace -> %s (%zu spans)\n", trace_json.c_str(),
                obs::trace_span_count());
    warn_if_spans_dropped();
  }
  if (!frame_trace.empty()) {
    std::printf("frame trace -> %s\n", frame_trace.c_str());
  }

  sim::Table table({"scheme", "clip", "PLR", "PSNR_dB", "bad_px_M", "size_KB",
                    "encode_J", "tx_J"});
  table.add_row(
      {scheme.label(), clip, sim::format("%.2f", plr),
       sim::format("%.2f", r.avg_psnr_db),
       sim::format("%.3f", static_cast<double>(r.total_bad_pixels) / 1e6),
       sim::format("%.1f", static_cast<double>(r.total_bytes) / 1024.0),
       sim::format("%.3f", r.encode_energy.total_j()),
       sim::format("%.3f", r.tx_energy_j)});
  table.print();
  // FEC line: only when fec_encode and fec_decode ran, so a FEC-free run
  // keeps the classic output byte-for-byte.
  if (config.fec.has_value()) {
    std::printf(
        "fec: windows %llu  repair sent %llu (%.1f KB)  recovered %llu  "
        "unrecoverable windows %llu\n",
        static_cast<unsigned long long>(r.fec_encode.windows),
        static_cast<unsigned long long>(r.fec_encode.repair_packets),
        static_cast<double>(r.fec_encode.repair_bytes) / 1024.0,
        static_cast<unsigned long long>(r.fec_decode.packets_recovered),
        static_cast<unsigned long long>(r.fec_decode.windows_unrecoverable));
  }
  // CRC line, same deal: only a --crc run prints it.
  if (config.wire.has_value()) {
    std::printf(
        "crc: packets checked %llu  corrupted %llu (dropped to erasures)\n",
        static_cast<unsigned long long>(r.wire.packets_checked),
        static_cast<unsigned long long>(r.wire.crc_corrupted));
  }
  return 0;
}

int cmd_serve(const common::ArgParser& args) {
  if (!apply_log_flags(args)) return 1;
  const int sessions = args.get_int("sessions", 0);
  if (sessions <= 0) {
    PB_LOG_ERROR("serve needs --sessions N (N >= 1)");
    return usage();
  }
  const int frames = args.get_int("frames", 60);
  const double plr = args.get_double("plr", 0.10);
  const int rtt = args.get_int("rtt", 0);
  const std::uint64_t base_seed =
      static_cast<std::uint64_t>(args.get_int("seed", 2005));

  sim::SchemeSpec scheme;
  if (!parse_scheme(args.get("scheme", "pbpair"),
                    args.get_double("intra-th", 0.9), plr, &scheme)) {
    return usage();
  }

  // Clips rotate over the paper's three so a multi-session mix exercises
  // the full motion-activity spectrum; each session gets its own seed.
  const video::SequenceKind kinds[] = {video::SequenceKind::kForemanLike,
                                       video::SequenceKind::kAkiyoLike,
                                       video::SequenceKind::kGardenLike};
  const char* kind_names[] = {"foreman", "akiyo", "garden"};

  // Live telemetry (DESIGN.md §10). Health tracking is always on in serve
  // — it only reads per-frame results, so outputs stay byte-identical
  // (tests/test_session_manager.cpp). The exporter is opt-in:
  // --metrics-port P binds 127.0.0.1:P, "auto" takes a kernel-assigned
  // ephemeral port (printed for scripts to parse), 0 (default) disables.
  const std::string metrics_port_arg = args.get("metrics-port", "0");
  const bool metrics_auto = metrics_port_arg == "auto";
  const int metrics_port =
      metrics_auto ? 0 : std::atoi(metrics_port_arg.c_str());
  const bool metrics_on = metrics_auto || metrics_port > 0;
  const int metrics_linger = args.get_int("metrics-linger", 0);

  // Post-mortem dumps (DESIGN.md §14): with --flight-dir, a session that
  // transitions to CRITICAL writes its flight-recorder ring to
  // DIR/flight_<label>.jsonl automatically.
  const std::string flight_dir = args.get("flight-dir");
  if (!flight_dir.empty()) {
    obs::FlightRegistry::global().set_dump_dir(flight_dir);
  }

  obs::HttpExporter exporter;
  if (metrics_on) {
    // /metrics is only useful with the metrics layer collecting.
    obs::set_enabled(true);
    obs::set_thread_name("pbpair-serve");
    const bool ok = exporter.start(metrics_port, [](const std::string& path) {
      obs::HttpResponse response;
      if (path == "/metrics") {
        response.body = obs::render_prometheus();
      } else if (path == "/healthz") {
        response.content_type = "application/json";
        response.body = obs::HealthRegistry::global().healthz_json() + "\n";
      } else if (path == "/flightrecorder") {
        // Index: the labels a /flightrecorder/<label> read can target.
        response.content_type = "application/json";
        std::string body = "{\"sessions\": [";
        bool first = true;
        for (const std::string& label :
             obs::FlightRegistry::global().labels()) {
          if (!first) body += ", ";
          first = false;
          body += "\"" + common::json_escape(label) + "\"";
        }
        body += "]}\n";
        response.body = std::move(body);
      } else if (path.compare(0, 16, "/flightrecorder/") == 0) {
        const std::string label = path.substr(16);
        const obs::FlightRecorder* recorder =
            obs::FlightRegistry::global().find(label);
        if (recorder == nullptr) {
          response.status = 404;
          response.content_type = "text/plain";
          response.body = "no flight recorder for session \"" + label +
                          "\"\n";
        } else {
          response.content_type = "application/x-ndjson";
          response.body = recorder->dump_jsonl();
        }
      } else {
        response.status = 404;
        response.content_type = "text/plain";
        response.body = "not found\n";
      }
      return response;
    });
    if (!ok) {
      PB_LOG_ERROR("cannot bind metrics port %d", metrics_port);
      return 1;
    }
    // Parsed by scripts (CI's monitor smoke) to find an "auto" port.
    std::printf("metrics: listening on 127.0.0.1:%d\n", exporter.port());
    std::fflush(stdout);
  }

  std::vector<sim::SessionSpec> specs;
  specs.reserve(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    sim::SessionSpec spec;
    spec.scheme = scheme;
    spec.config.frames = frames;
    spec.config.encoder.qp = args.get_int("qp", 10);
    spec.config.health = obs::HealthConfig{};
    apply_fault_flags(args, &spec.config);
    if (!apply_fec_flags(args, &spec.config)) return 2;
    if (args.has("crc")) spec.config.wire = net::WireConfig{};
    if (spec.config.faults.has_value()) {
      // Per-session offset so concurrent sessions damage independently.
      spec.config.faults->seed += static_cast<std::uint64_t>(i);
    }
    if (rtt > 0 && scheme.kind == sim::SchemeKind::kPbpair) {
      // Close the §3.2 loop per session: RTCP receiver reports reach the
      // probability model after the configured RTT.
      spec.config.feedback_rtt_frames = rtt;
      spec.config.on_feedback = [](int, const net::ReceiverReport& report,
                                   codec::RefreshPolicy& policy) {
        if (auto* p = dynamic_cast<core::PbpairPolicy*>(&policy)) {
          p->set_plr(report.fraction_lost_as_double());
        }
      };
    }
    // --sheddable marks every session DEGRADED-eligible: admission may
    // shed it under fleet pressure instead of serving it.
    spec.sheddable = args.has("sheddable");
    video::SyntheticSequence sequence =
        video::make_paper_sequence(kinds[i % 3]);
    spec.source = [sequence](int f) { return sequence.frame_at(f); };
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    spec.make_loss = [plr, seed] {
      return std::make_unique<net::UniformFrameLoss>(plr, seed);
    };
    specs.push_back(std::move(spec));
  }

  sim::SessionManager manager(std::move(specs));
  sim::SessionManagerOptions options;
  options.threads = args.get_int("threads", 0);
  options.frames_per_slice = args.get_int("slice", 0);
  // Admission control / load shedding (DESIGN.md §15): any of the three
  // flags enables the policy; without them every session is admitted and
  // construction is uncapped, exactly the pre-admission behaviour.
  const int admit_live = args.get_int("admit-live", 0);
  const int admit_queue = args.get_int("admit-queue", 0);
  if (admit_live > 0 || admit_queue > 0 || args.has("sheddable")) {
    sim::AdmissionConfig admission;
    admission.max_live_per_shard =
        admit_live > 0 ? static_cast<std::size_t>(admit_live) : 0;
    admission.shed_queue_depth =
        admit_queue > 0 ? static_cast<std::size_t>(admit_queue) : 0;
    options.admission = admission;
  }
  sim::AdmissionReport admission_report;
  std::vector<sim::PipelineResult> results =
      manager.run(options, &admission_report);
  if (options.admission.has_value()) {
    std::printf("admission: accepted %zu, queued %zu, shed %zu\n",
                admission_report.accepted, admission_report.queued,
                admission_report.shed);
  }

  if (sessions <= 16) {
    // With --crc the table splits wire damage out of loss: lost_pkts stays
    // the channel drops, crc_bad is what arrived corrupted.
    const bool crc_on = args.has("crc");
    std::vector<std::string> header = {"session", "clip",      "scheme",
                                       "PSNR_dB", "size_KB",   "lost_pkts",
                                       "encode_J", "tx_J"};
    if (crc_on) header.insert(header.begin() + 6, "crc_bad");
    sim::Table table(std::move(header));
    for (int i = 0; i < sessions; ++i) {
      const sim::PipelineResult& r = results[static_cast<std::size_t>(i)];
      const std::string label = sim::SessionManager::default_label(
          static_cast<std::size_t>(i), static_cast<std::size_t>(sessions));
      const bool shed =
          options.admission.has_value() &&
          admission_report.decisions[static_cast<std::size_t>(i)] ==
              sim::AdmitDecision::kShed;
      std::vector<std::string> row = {
          label, kind_names[i % 3], shed ? "(shed)" : scheme.label(),
          sim::format("%.2f", r.avg_psnr_db),
          sim::format("%.1f", static_cast<double>(r.total_bytes) / 1024.0),
          sim::format("%llu", static_cast<unsigned long long>(
                                  r.channel.packets_dropped)),
          sim::format("%.3f", r.encode_energy.total_j()),
          sim::format("%.3f", r.tx_energy_j)};
      if (crc_on) {
        row.insert(row.begin() + 6,
                   sim::format("%llu", static_cast<unsigned long long>(
                                           r.wire.crc_corrupted)));
      }
      table.add_row(std::move(row));
    }
    table.print();
  }
  sim::SessionAggregate agg = sim::SessionManager::aggregate(results);
  std::printf("aggregate: %s\n", agg.to_json().c_str());
  std::fflush(stdout);
  if (metrics_on && metrics_linger > 0) {
    // Keep serving final /metrics & /healthz so scrapers (curl, monitor)
    // launched against a short run still get their two samples.
    std::this_thread::sleep_for(std::chrono::seconds(metrics_linger));
  }
  exporter.stop();
  return 0;
}

// --- pbpair monitor ------------------------------------------------------

bool read_text_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  std::size_t n;
  out->clear();
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

/// Per-session values pulled out of one /metrics scrape.
struct MonitorSample {
  std::map<std::string, double> values;  // metric family -> value
  double get(const std::string& family) const {
    auto it = values.find(family);
    return it == values.end() ? 0.0 : it->second;
  }
};

/// session label -> its samples, for the families monitor consumes.
std::map<std::string, MonitorSample> index_scrape(const std::string& text,
                                                  bool* ok) {
  std::map<std::string, MonitorSample> by_session;
  std::vector<obs::PromSample> samples;
  *ok = obs::parse_prometheus_text(text, &samples);
  for (const obs::PromSample& s : samples) {
    if (s.session.empty()) continue;
    by_session[s.session].values[s.family] = s.value;
  }
  return by_session;
}

/// Unlabeled family -> value (the process-global counters, e.g. the fault
/// injector's net.fault.* and the depacketizer's drop counters).
std::map<std::string, double> index_globals(const std::string& text) {
  std::map<std::string, double> values;
  std::vector<obs::PromSample> samples;
  if (!obs::parse_prometheus_text(text, &samples)) return values;
  for (const obs::PromSample& s : samples) {
    if (s.session.empty()) values[s.family] = s.value;
  }
  return values;
}

int cmd_monitor(const common::ArgParser& args) {
  if (!apply_log_flags(args)) return 1;
  const std::string from = args.get("from");
  const std::string to = args.get("to");
  const std::string host = args.get("host", "127.0.0.1");
  const int port = args.get_int("port", 0);
  const bool json_mode = args.has("json");
  const double interval = args.get_double("interval", 2.0);
  if (interval <= 0.0) {
    PB_LOG_ERROR("--interval must be positive");
    return 1;
  }

  std::string scrape1, scrape2;
  if (!from.empty() || !to.empty()) {
    // Offline mode: two saved /metrics scrapes, `interval` seconds apart.
    if (from.empty() || to.empty()) {
      PB_LOG_ERROR("monitor needs both --from and --to (or --port)");
      return usage();
    }
    if (!read_text_file(from, &scrape1)) {
      PB_LOG_ERROR("cannot read %s", from.c_str());
      return 1;
    }
    if (!read_text_file(to, &scrape2)) {
      PB_LOG_ERROR("cannot read %s", to.c_str());
      return 1;
    }
  } else {
    if (port <= 0) {
      PB_LOG_ERROR("monitor needs --port P (or --from/--to files)");
      return usage();
    }
    int status = 0;
    if (!obs::http_get(host, port, "/metrics", &scrape1, &status) ||
        status != 200) {
      PB_LOG_ERROR("scrape of http://%s:%d/metrics failed (status %d)",
                   host.c_str(), port, status);
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    if (!obs::http_get(host, port, "/metrics", &scrape2, &status) ||
        status != 200) {
      PB_LOG_ERROR("second scrape of http://%s:%d/metrics failed (status %d)",
                   host.c_str(), port, status);
      return 1;
    }
  }

  bool ok1 = false, ok2 = false;
  std::map<std::string, MonitorSample> before = index_scrape(scrape1, &ok1);
  std::map<std::string, MonitorSample> after = index_scrape(scrape2, &ok2);
  if (!ok1 || !ok2) {
    PB_LOG_ERROR("malformed Prometheus text in scrape");
    return 1;
  }
  if (after.empty()) {
    std::printf("no per-session samples in scrape\n");
    return 1;
  }

  // CRC-framed sessions (DESIGN.md §13) export a crc_corrupted counter
  // (present even at zero), which splits wire damage out of loss: lost/s
  // counts packets that never arrived, corrupt/s the ones that arrived but
  // failed their CRC64 trailer. Without it the classic table is printed
  // unchanged.
  bool crc_on = false;
  for (const auto& [label, now] : after) {
    crc_on = crc_on ||
             now.values.count("pbpair_session_crc_corrupted_total") > 0;
  }
  std::vector<std::string> header = {"session", "frames/s", "PSNR_dB",
                                     "eff_PLR"};
  if (crc_on) {
    header.push_back("lost/s");
    header.push_back("corrupt/s");
  }
  header.insert(header.end(), {"intra", "J/frame", "health"});
  sim::Table table(std::move(header));
  for (const auto& [label, now] : after) {
    const MonitorSample& then = before.count(label)
                                    ? before.at(label)
                                    : MonitorSample{};
    const double d_frames = now.get("pbpair_session_frames_total") -
                            then.get("pbpair_session_frames_total");
    const double d_sent = now.get("pbpair_session_packets_sent_total") -
                          then.get("pbpair_session_packets_sent_total");
    const double d_delivered =
        now.get("pbpair_session_packets_delivered_total") -
        then.get("pbpair_session_packets_delivered_total");
    const double d_intra = now.get("pbpair_session_intra_mbs_total") -
                           then.get("pbpair_session_intra_mbs_total");
    const double d_mbs = now.get("pbpair_session_mbs_total") -
                         then.get("pbpair_session_mbs_total");
    const double d_uj = now.get("pbpair_session_energy_uj_total") -
                        then.get("pbpair_session_energy_uj_total");
    const double eff_plr = d_sent > 0 ? 1.0 - d_delivered / d_sent : 0.0;
    const int state =
        static_cast<int>(now.get("pbpair_session_health_state") + 0.5);
    if (json_mode) {
      // One JSONL object per session per refresh, stable schema (the
      // lost/corrupt rates are present even without --crc, at zero) so
      // downstream pipelines never branch on table shape.
      const double d_corrupt =
          now.get("pbpair_session_crc_corrupted_total") -
          then.get("pbpair_session_crc_corrupted_total");
      std::printf(
          "{\"session\": \"%s\", \"frames_per_s\": %.3f, "
          "\"psnr_db\": %.2f, \"eff_plr\": %.4f, \"lost_per_s\": %.3f, "
          "\"corrupt_per_s\": %.3f, \"intra_ratio\": %.4f, "
          "\"j_per_frame\": %.6f, \"health\": \"%s\"}\n",
          common::json_escape(label).c_str(), d_frames / interval,
          now.get("pbpair_session_psnr_db"), eff_plr,
          (d_sent - d_delivered) / interval, d_corrupt / interval,
          d_mbs > 0 ? d_intra / d_mbs : 0.0,
          d_frames > 0 ? d_uj / 1e6 / d_frames : 0.0,
          obs::health_state_name(static_cast<obs::HealthState>(state)));
      continue;
    }
    std::vector<std::string> row = {
        label, sim::format("%.1f", d_frames / interval),
        sim::format("%.2f", now.get("pbpair_session_psnr_db")),
        sim::format("%.3f", eff_plr)};
    if (crc_on) {
      const double d_corrupt =
          now.get("pbpair_session_crc_corrupted_total") -
          then.get("pbpair_session_crc_corrupted_total");
      const double d_lost = d_sent - d_delivered;
      row.push_back(sim::format("%.1f", d_lost / interval));
      row.push_back(sim::format("%.1f", d_corrupt / interval));
    }
    row.push_back(sim::format("%.3f", d_mbs > 0 ? d_intra / d_mbs : 0.0));
    row.push_back(
        sim::format("%.4f", d_frames > 0 ? d_uj / 1e6 / d_frames : 0.0));
    row.push_back(
        obs::health_state_name(static_cast<obs::HealthState>(state)));
    table.add_row(std::move(row));
  }
  if (json_mode) {
    // Machine mode is per-session JSONL only: the damage/wire summary
    // lines below are human-format prose and would corrupt the stream.
    std::fflush(stdout);
    return 0;
  }
  table.print();

  // Damage line (DESIGN.md §11): printed only when the fault-injection /
  // hardening counters moved between the scrapes, so a clean channel
  // keeps the classic output.
  const std::map<std::string, double> g_then = index_globals(scrape1);
  const std::map<std::string, double> g_now = index_globals(scrape2);
  const auto delta = [&](const char* family) {
    const auto then_it = g_then.find(family);
    const auto now_it = g_now.find(family);
    return (now_it == g_now.end() ? 0.0 : now_it->second) -
           (then_it == g_then.end() ? 0.0 : then_it->second);
  };
  const double d_bits = delta("pbpair_net_fault_bits_flipped_total");
  const double d_hdrs = delta("pbpair_net_fault_headers_corrupted_total");
  const double d_trunc = delta("pbpair_net_fault_payloads_truncated_total");
  const double d_dup = delta("pbpair_net_fault_packets_duplicated_total");
  const double d_reord = delta("pbpair_net_fault_packets_reordered_total");
  const double d_unparse = delta("pbpair_net_fault_dropped_unparseable_total");
  const double d_badhdr = delta("pbpair_net_dropped_bad_header_total");
  const double d_orphan =
      delta("pbpair_net_dropped_orphan_continuation_total");
  if (d_bits + d_hdrs + d_trunc + d_dup + d_reord + d_unparse + d_badhdr +
          d_orphan >
      0.0) {
    std::printf(
        "damage/s: bits %.1f  hdr_corrupt %.1f  truncated %.1f  dup %.1f  "
        "reorder %.1f  unparseable %.1f  bad_hdr_drop %.1f  "
        "orphan_drop %.1f\n",
        d_bits / interval, d_hdrs / interval, d_trunc / interval,
        d_dup / interval, d_reord / interval, d_unparse / interval,
        d_badhdr / interval, d_orphan / interval);
  }

  // Wire line (DESIGN.md §13): CRC verdict rates plus the per-packet
  // net.wire.ns latency quantiles, from the histogram's cumulative bucket
  // deltas. Printed only when packets were CRC-checked between the
  // scrapes, so a CRC-off serve keeps the classic output.
  const double d_crc_ok = delta("pbpair_net_crc_ok_total");
  const double d_crc_bad = delta("pbpair_net_crc_corrupted_total");
  if (d_crc_ok + d_crc_bad > 0.0) {
    // (le upper bound, delta of the cumulative count), sorted by le. The
    // parser keeps non-session labels on the family string, so bucket
    // families look like `pbpair_net_wire_ns_bucket{le="1024"}`.
    const std::string bucket_prefix = "pbpair_net_wire_ns_bucket{le=\"";
    std::map<double, double> buckets;
    for (const auto& [family, value] : g_now) {
      if (family.compare(0, bucket_prefix.size(), bucket_prefix) != 0) {
        continue;
      }
      std::string le_text = family.substr(bucket_prefix.size());
      le_text.resize(le_text.find('"'));
      const double le =
          le_text == "+Inf" ? 1e308 : std::atof(le_text.c_str());
      const auto then_it = g_then.find(family);
      buckets[le] =
          value - (then_it == g_then.end() ? 0.0 : then_it->second);
    }
    const double d_count = delta("pbpair_net_wire_ns_count");
    const auto quantile = [&](double q) {
      for (const auto& [le, cumulative] : buckets) {
        if (cumulative >= q * d_count) return le;
      }
      return 1e308;
    };
    std::printf("wire/s: crc_ok %.1f  crc_corrupt %.1f", d_crc_ok / interval,
                d_crc_bad / interval);
    if (d_count > 0.0 && !buckets.empty()) {
      const double p50 = quantile(0.50);
      const double p99 = quantile(0.99);
      std::printf("  p50<=%s  p99<=%s",
                  p50 >= 1e308 ? ">max" : sim::format("%.0fns", p50).c_str(),
                  p99 >= 1e308 ? ">max" : sim::format("%.0fns", p99).c_str());
    }
    std::printf("\n");
  }
  return 0;
}

// --- pbpair fuzz ---------------------------------------------------------

int cmd_fuzz(const common::ArgParser& args) {
  if (!apply_log_flags(args)) return 1;
  sim::FuzzOptions options;
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 2005));
  options.iterations = args.get_int("iters", 2000);
  options.target = args.get("fuzz-target", "all");
  options.crash_dir = args.get("crash-dir");
  if (options.iterations <= 0) {
    PB_LOG_ERROR("--iters must be positive");
    return 1;
  }

  sim::FuzzReport report;
  if (!sim::run_fuzz(options, &report)) {
    PB_LOG_ERROR("unknown --fuzz-target %s", options.target.c_str());
    return usage();
  }
  // Reaching this line IS the verdict: a contract violation would have
  // aborted (PB_CHECK) or tripped the sanitizers before we got here.
  for (const auto& [name, count] : report.iterations_per_target) {
    std::printf("fuzz %-12s %llu iterations\n", name.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("fuzz ok: %llu iterations (seed %llu), %llu MBs concealed, "
              "%llu hostile inputs rejected by parsers\n",
              static_cast<unsigned long long>(report.total_iterations),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(report.decoder_concealed_mbs),
              static_cast<unsigned long long>(report.parse_rejects));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string command = argv[1];
  common::ArgParser args(argc - 1, argv + 1);

  int result;
  if (command == "encode") {
    result = cmd_encode(args);
  } else if (command == "decode") {
    result = cmd_decode(args);
  } else if (command == "simulate") {
    result = cmd_simulate(args);
  } else if (command == "serve") {
    result = cmd_serve(args);
  } else if (command == "monitor") {
    result = cmd_monitor(args);
  } else if (command == "fuzz") {
    result = cmd_fuzz(args);
  } else {
    return usage();
  }
  for (const std::string& flag : args.unknown_flags()) {
    std::fprintf(stderr, "warning: unrecognized flag --%s\n", flag.c_str());
  }
  return result;
}
