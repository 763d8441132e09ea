// Post-mortem flight recorder: a fixed-size ring of the most recent
// per-session events, cheap enough (a few ns per record, no clock reads,
// no locks, no allocation) to leave on even in deterministic runs.
//
// Each session owns one ring and is its single writer (sessions are
// single-threaded per slice; cross-slice handoff is synchronized by the
// session manager's pool, which also orders the ring accesses). Readers —
// the `GET /flightrecorder/<session>` endpoint, the CRITICAL-transition
// dump, the fuzzer's crash handler — copy the window and re-validate
// against the head sequence so a concurrent writer can at worst make a
// just-overwritten slot disappear from the copy, never tear into it.
//
// Records carry no timestamps: the (seq, frame) pair already totally
// orders a session's events, and leaving the clock out keeps recording
// deterministic and branch-free. Dumps are JSONL, one event per line:
//   {"session":"s000","seq":12,"frame":7,"event":"fec_decision","a":2,"b":0}
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pbpair::obs {

enum class FlightEvent : std::uint8_t {
  kFrameEncoded = 0,     // a = bytes, b = intra MBs
  kFrameDecoded,         // a = PSNR in milli-dB, b = bad pixels
  kFrameLost,            // a = media packets lost, b = media sent
  kPlrUpdate,            // a = fraction_lost (RTCP Q8), b = corrupted
  kFecDecision,          // a = repair packets sent, b = media packets
  kCrcCorruption,        // a = corrupted packets, b = packets checked
  kHealthTransition,     // a = from state, b = to state (HealthState ints)
  kFuzzCase,             // a = iteration, b = target ordinal
  kSessionShed,          // a = session slot index, b = target shard
};

/// Stable lowercase name for dumps ("frame_encoded", "plr_update", ...).
const char* flight_event_name(FlightEvent event);

struct FlightRecord {
  std::uint64_t seq = 0;  // monotonic per ring; also the overwrite witness
  std::int32_t frame = -1;
  FlightEvent event = FlightEvent::kFrameEncoded;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two (default 256 events).
  explicit FlightRecorder(std::string label, std::size_t capacity = 256);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  const std::string& label() const { return label_; }
  std::size_t capacity() const { return mask_ + 1; }

  /// Appends one event (single-writer; see file comment). A few ns: one
  /// relaxed load, four plain stores, one release store.
  void record(FlightEvent event, std::int32_t frame, std::int64_t a = 0,
              std::int64_t b = 0);

  /// Events recorded since construction/reset (not capped at capacity).
  std::uint64_t total_recorded() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Copies the surviving window, oldest first. Safe against a concurrent
  /// writer: slots overwritten mid-copy are detected via their seq and
  /// dropped.
  std::vector<FlightRecord> snapshot() const;

  /// Renders snapshot() as JSONL, one object per line.
  std::string dump_jsonl() const;

  /// dump_jsonl() to a file; false when the file cannot be opened.
  bool dump_to_path(const std::string& path) const;

  /// Async-signal-safe dump to an open fd: no allocation, no locks, stack
  /// buffers and ::write only. For crash handlers (the fuzzer's SIGABRT
  /// hook); regular callers want dump_jsonl().
  void dump_unsafe(int fd) const;

  /// Forgets all events (capacity and label are kept).
  void reset() { head_.store(0, std::memory_order_release); }

 private:
  // Ring slot with atomic fields: the single writer stores them relaxed,
  // a concurrent snapshot reads them relaxed — race-free by construction,
  // with the reader's consistency restored by the seq/head re-check.
  struct Slot {
    std::atomic<std::uint64_t> seq{~std::uint64_t{0}};
    std::atomic<std::int32_t> frame{-1};
    std::atomic<std::uint8_t> event{0};
    std::atomic<std::int64_t> a{0};
    std::atomic<std::int64_t> b{0};
  };

  std::string label_;
  std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
};

/// Process-wide label -> recorder map. Recorders are created on session
/// init and never destroyed (stable pointers, like metrics), so a ring
/// outlives its session — that is the whole point of a post-mortem tool.
/// Re-creating a label resets its ring.
class FlightRegistry {
 public:
  static FlightRegistry& global();

  /// Returns the recorder for `label`, creating (or resetting) it.
  FlightRecorder* create(const std::string& label,
                         std::size_t capacity = 256);

  /// nullptr when the label was never created.
  FlightRecorder* find(const std::string& label) const;

  /// Sorted labels of every recorder ever created.
  std::vector<std::string> labels() const;

  /// Directory for automatic CRITICAL-transition dumps
  /// (<dir>/flight_<label>.jsonl). Empty (the default) disables them.
  void set_dump_dir(const std::string& dir);
  std::string dump_dir() const;

  /// Drops every recorder and the dump dir (test isolation only — stable
  /// pointers from create() are invalidated).
  void clear();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<FlightRecorder>> recorders_;
  std::string dump_dir_;
};

}  // namespace pbpair::obs
