#include "sim/session_manager.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/mpmc_queue.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/parallel_sweep.h"
#include "sim/report.h"

namespace pbpair::sim {
namespace {

using Clock = std::chrono::steady_clock;

std::unique_ptr<StreamSession> build_session(const SessionSpec& spec,
                                             const std::string& label) {
  std::unique_ptr<net::LossModel> loss;
  if (spec.make_loss) loss = spec.make_loss();
  return std::make_unique<StreamSession>(spec.source, spec.scheme,
                                         std::move(loss), spec.config, label);
}

/// One worker's shard: two bounded MPMC queues of session slot indices
/// plus the live-session accounting the admission cap rides on. `active`
/// holds constructed sessions between slices, `pending` holds admitted
/// sessions not yet constructed. Both queues are sized to hold every
/// session pinned to the shard, so a self-requeue can never fail.
struct Shard {
  std::unique_ptr<common::MpmcQueue<std::uint32_t>> active;
  std::unique_ptr<common::MpmcQueue<std::uint32_t>> pending;
  /// Constructed-but-unfinished sessions pinned here (stealing executes
  /// elsewhere but the session still counts against its pinned shard).
  std::atomic<std::size_t> live{0};
  std::size_t live_cap = 0;  // 0 = uncapped
  obs::Histogram* frame_ns = nullptr;  // "sim.shard.<k>.frame_ns"
};

/// Reserves a live ticket on `shard` (respecting its cap) and pops one
/// pending slot. The ticket is taken FIRST so the cap is never exceeded,
/// and returned if the queue turned out to be empty.
bool take_pending(Shard& shard, std::uint32_t* slot) {
  for (;;) {
    std::size_t live = shard.live.load(std::memory_order_relaxed);
    if (shard.live_cap > 0 && live >= shard.live_cap) return false;
    if (shard.live.compare_exchange_weak(live, live + 1,
                                         std::memory_order_relaxed)) {
      break;
    }
  }
  if (shard.pending->try_pop(slot)) return true;
  shard.live.fetch_sub(1, std::memory_order_relaxed);
  return false;
}

}  // namespace

int sweep_thread_count() {
  if (const char* env = std::getenv("PBPAIR_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<PipelineResult> run_parallel_sweep(
    const std::vector<SweepTask>& tasks, const SweepOptions& options) {
  if (tasks.empty()) return {};  // the manager PB_CHECKs a non-empty fleet
  const int threads =
      options.threads > 0 ? options.threads : sweep_thread_count();
  SessionManagerOptions run_options;
  run_options.threads = static_cast<int>(
      std::min(static_cast<std::size_t>(threads), tasks.size()));
  return SessionManager(tasks).run(run_options);
}

SessionManager::SessionManager(std::vector<SessionSpec> specs)
    : specs_(std::move(specs)) {
  PB_CHECK(!specs_.empty());
}

std::string SessionManager::default_label(std::size_t index,
                                          std::size_t count) {
  int width = 1;
  for (std::size_t v = count > 0 ? count - 1 : 0; v >= 10; v /= 10) ++width;
  if (width < 3) width = 3;  // "s000": the historical floor
  char buf[32];
  std::snprintf(buf, sizeof(buf), "s%0*zu", width, index);
  return buf;
}

std::vector<PipelineResult> SessionManager::run(
    const SessionManagerOptions& options, AdmissionReport* admission_report) {
  const int threads =
      options.threads <= 0 ? sweep_thread_count() : options.threads;
  const std::size_t shard_count = static_cast<std::size_t>(threads);
  const int slice = options.frames_per_slice;
  std::vector<PipelineResult> results(specs_.size());
  PB_LOG_INFO("session manager: %zu sessions, %d shards, %s", specs_.size(),
              threads,
              slice <= 0 ? "throughput mode" : "serving mode");

  // --- admission: serial, in session-index order, before any work runs.
  // Pinning and every accept/queue/shed decision are a pure function of
  // (specs, config, health-registry state at entry), so the outcome is
  // identical at any thread count given the same shard count... pinning
  // depends on shard count, but per-session RESULTS never do.
  std::vector<std::string> labels(specs_.size());
  std::vector<std::size_t> pinned_shard(specs_.size(), 0);
  std::vector<std::size_t> pinned_depth(shard_count, 0);
  std::vector<std::vector<std::uint32_t>> assignments(shard_count);
  SessionAdmission admission(options.admission.value_or(AdmissionConfig{}));
  admission.sample_fleet();
  AdmissionReport report;
  report.decisions.resize(specs_.size(), AdmitDecision::kAccepted);
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    labels[i] = specs_[i].label.empty()
                    ? default_label(i, specs_.size())
                    : specs_[i].label;
    const std::size_t shard = rendezvous_shard(labels[i], shard_count);
    pinned_shard[i] = shard;
    const AdmitDecision decision =
        options.admission.has_value()
            ? admission.admit(i, labels[i], specs_[i].sheddable, shard,
                              pinned_depth[shard])
            : AdmitDecision::kAccepted;
    report.decisions[i] = decision;
    if (decision == AdmitDecision::kShed) {
      ++report.shed;
      continue;  // results[i] stays default-constructed
    }
    decision == AdmitDecision::kQueued ? ++report.queued : ++report.accepted;
    ++pinned_depth[shard];
    assignments[shard].push_back(static_cast<std::uint32_t>(i));
  }
  if (report.shed > 0) {
    PB_LOG_INFO("admission: accepted %zu, queued %zu, shed %zu",
                report.accepted, report.queued, report.shed);
  }
  if (options.admission.has_value() && obs::enabled()) {
    // Each name enters the registry with its first decision of that kind.
    const std::pair<const char*, std::size_t> outcomes[] = {
        {"sim.admit.accepted", report.accepted},
        {"sim.admit.queued", report.queued},
        {"sim.admit.shed", report.shed}};
    for (const auto& [name, n] : outcomes) {
      if (n > 0) obs::counter(name).add(n);
    }
  }

  // --- shard setup. Queue capacity >= pinned count so requeues (active)
  // and the initial fill (pending) can never be rejected.
  const bool obs_on = obs::enabled();
  std::vector<Shard> shards(shard_count);
  for (std::size_t k = 0; k < shard_count; ++k) {
    const std::size_t depth = assignments[k].size();
    shards[k].active =
        std::make_unique<common::MpmcQueue<std::uint32_t>>(depth + 1);
    shards[k].pending =
        std::make_unique<common::MpmcQueue<std::uint32_t>>(depth + 1);
    shards[k].live_cap =
        options.admission.has_value() ? admission.config().max_live_per_shard
                                      : 0;
    if (obs_on) {
      shards[k].frame_ns =
          &obs::histogram(format("sim.shard.%02zu.frame_ns", k));
    }
    for (const std::uint32_t slot : assignments[k]) {
      PB_CHECK(shards[k].pending->try_push(slot));
    }
  }

  // --- the engine. Sessions construct lazily on first execution, advance
  // `slice` frames per execution (to completion when slice <= 0), requeue
  // to their PINNED shard's active queue, and are destroyed the moment
  // their result is taken — releasing arena and codec state mid-run.
  std::vector<std::unique_ptr<StreamSession>> sessions(specs_.size());
  std::atomic<std::size_t> remaining{report.accepted + report.queued};

  auto execute = [&](std::size_t worker, std::uint32_t slot) {
    obs::ScopedSpan span(slice <= 0 ? "session.run" : "session.slice",
                         static_cast<std::int64_t>(slot), "session");
    std::unique_ptr<StreamSession>& session = sessions[slot];
    if (!session) session = build_session(specs_[slot], labels[slot]);
    int steps = slice <= 0 ? INT_MAX : slice;
    while (steps-- > 0 && !session->done()) {
      if (obs_on) {
        const Clock::time_point t0 = Clock::now();
        session->step();
        shards[worker].frame_ns->observe(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
      } else {
        session->step();
      }
    }
    if (session->done()) {
      results[slot] = session->take_result();
      session.reset();
      shards[pinned_shard[slot]].live.fetch_sub(1, std::memory_order_relaxed);
      PB_LOG_INFO("session %u finished: %zu frames, %.2f dB", slot,
                  results[slot].frames.size(), results[slot].avg_psnr_db);
      remaining.fetch_sub(1, std::memory_order_release);
    } else {
      PB_CHECK(shards[pinned_shard[slot]].active->try_push(slot));
    }
  };

  // Own active first (hot session, no build cost), then own pending
  // (gated by the live cap), then steal — actives before pendings, so a
  // drained shard helps finish in-flight work before materializing more.
  auto try_get = [&](std::size_t worker, std::uint32_t* slot) {
    if (shards[worker].active->try_pop(slot)) return true;
    if (take_pending(shards[worker], slot)) return true;
    for (std::size_t off = 1; off < shard_count; ++off) {
      const std::size_t j = (worker + off) % shard_count;
      if (shards[j].active->try_pop(slot)) return true;
    }
    for (std::size_t off = 1; off < shard_count; ++off) {
      const std::size_t j = (worker + off) % shard_count;
      if (take_pending(shards[j], slot)) return true;
    }
    return false;
  };

  auto worker_loop = [&](std::size_t worker) {
    // Spawned workers only: the serial path keeps the caller's name.
    if (obs_on && shard_count > 1) {
      obs::set_thread_name(format("shard-%02zu", worker));
    }
    std::uint32_t slot = 0;
    while (remaining.load(std::memory_order_acquire) > 0) {
      if (try_get(worker, &slot)) {
        execute(worker, slot);
      } else {
        // All queues momentarily empty but sessions are still in flight
        // on other workers; yield until one requeues or finishes.
        std::this_thread::yield();
      }
    }
  };

  if (shard_count == 1) {
    worker_loop(0);  // serial fast path: no thread spawn
  } else {
    std::vector<std::thread> workers;
    workers.reserve(shard_count);
    for (std::size_t k = 0; k < shard_count; ++k) {
      workers.emplace_back(worker_loop, k);
    }
    for (std::thread& t : workers) t.join();
  }

  if (admission_report != nullptr) *admission_report = std::move(report);
  return results;
}

SessionAggregate SessionManager::aggregate(
    const std::vector<PipelineResult>& results) {
  SessionAggregate agg;
  for (const PipelineResult& r : results) {
    if (r.frames.empty()) continue;  // shed at admission: no contribution
    ++agg.sessions;
    agg.total_frames += r.frames.size();
    agg.total_bytes += r.total_bytes;
    agg.total_bad_pixels += r.total_bad_pixels;
    agg.total_intra_mbs += r.total_intra_mbs;
    agg.concealed_mbs += r.concealed_mbs;
    agg.packets_sent += r.channel.packets_sent;
    agg.packets_dropped += r.channel.packets_dropped;
    agg.mean_psnr_db += r.avg_psnr_db;
    agg.encode_energy_j += r.encode_energy.total_j();
    agg.tx_energy_j += r.tx_energy_j;
  }
  if (agg.sessions > 0) {
    agg.mean_psnr_db /= static_cast<double>(agg.sessions);
  }
  return agg;
}

std::string SessionAggregate::to_json() const {
  // sim::format grows to fit (the old fixed 512-byte snprintf buffer
  // silently truncated — invalid JSON — once counters went 10k-session
  // large).
  return format(
      "{\"sessions\": %llu, \"total_frames\": %llu, \"total_bytes\": %llu, "
      "\"total_bad_pixels\": %llu, \"total_intra_mbs\": %llu, "
      "\"concealed_mbs\": %llu, \"packets_sent\": %llu, "
      "\"packets_dropped\": %llu, \"mean_psnr_db\": %.6f, "
      "\"encode_energy_j\": %.6f, \"tx_energy_j\": %.6f}",
      static_cast<unsigned long long>(sessions),
      static_cast<unsigned long long>(total_frames),
      static_cast<unsigned long long>(total_bytes),
      static_cast<unsigned long long>(total_bad_pixels),
      static_cast<unsigned long long>(total_intra_mbs),
      static_cast<unsigned long long>(concealed_mbs),
      static_cast<unsigned long long>(packets_sent),
      static_cast<unsigned long long>(packets_dropped), mean_psnr_db,
      encode_energy_j, tx_energy_j);
}

}  // namespace pbpair::sim
