#include "net/fec.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "net/gf256.h"

namespace pbpair::net {
namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

// The protected symbol of a media packet — [u16 wire length | wire bytes |
// zero padding] — decomposed into the slices it is made of, so the GF(256)
// kernels can stream over them without materializing the symbol: a small
// stack prefix (length + serialized header), the borrowed payload ref, and
// the optional CRC trailer. Zero padding is skipped outright (addmul of
// zeros is the identity).
struct SymbolPieces {
  std::uint8_t prefix[2 + kHeaderWireSize];
  const BufferRef* payload;
  std::uint8_t trailer[kCrcTrailerSize];
  std::size_t trailer_len;
};

SymbolPieces make_symbol_pieces(const Packet& packet) {
  SymbolPieces pieces;
  const std::size_t wire = packet.wire_size();
  pieces.prefix[0] = static_cast<std::uint8_t>(wire >> 8);
  pieces.prefix[1] = static_cast<std::uint8_t>(wire & 0xFF);
  serialize_header(packet, pieces.prefix + 2);
  pieces.payload = &packet.payload;
  pieces.trailer_len = 0;
  if (packet.crc_present) {
    const std::uint64_t crc = packet_crc64(packet);
    for (int i = 0; i < 8; ++i) {
      pieces.trailer[i] = static_cast<std::uint8_t>(crc >> (56 - 8 * i));
    }
    pieces.trailer_len = kCrcTrailerSize;
  }
  return pieces;
}

// dst ^= c * symbol(pieces), streamed piece by piece. The caller
// guarantees the symbol fits (wire_size + 2 <= symbol_len).
void addmul_pieces(std::uint8_t* dst, const SymbolPieces& pieces,
                   std::uint8_t c) {
  gf256_addmul(dst, pieces.prefix, c, sizeof(pieces.prefix));
  gf256_addmul(dst + sizeof(pieces.prefix), pieces.payload->data(), c,
               pieces.payload->size());
  if (pieces.trailer_len > 0) {
    gf256_addmul(dst + sizeof(pieces.prefix) + pieces.payload->size(),
                 pieces.trailer, c, pieces.trailer_len);
  }
}

std::uint8_t coefficient(FecScheme scheme, int repair_index, int data_index) {
  return scheme == FecScheme::kXorParity
             ? 1
             : fec_cauchy_coefficient(repair_index, data_index);
}

}  // namespace


std::uint8_t fec_cauchy_coefficient(int repair_index, int data_index) {
  // Cauchy element sets: data columns y_i = i (i < kMaxFecK), repair rows
  // x_j = 255 - j (j < kMaxFecM). Disjoint and internally distinct, so
  // every square submatrix of [c_{j,i}] = [1/(x_j ^ y_i)] is invertible.
  PB_CHECK(repair_index >= 0 && repair_index < kMaxFecM);
  PB_CHECK(data_index >= 0 && data_index < kMaxFecK);
  const std::uint8_t x = static_cast<std::uint8_t>(255 - repair_index);
  const std::uint8_t y = static_cast<std::uint8_t>(data_index);
  return gf256_inv(static_cast<std::uint8_t>(x ^ y));
}

std::vector<std::uint8_t> serialize_repair_payload(
    const FecRepairHeader& header, const std::vector<std::uint8_t>& symbol) {
  std::vector<std::uint8_t> payload;
  payload.reserve(kFecRepairHeaderSize + symbol.size());
  payload.push_back(header.scheme);
  payload.push_back(header.k);
  payload.push_back(header.m);
  payload.push_back(header.repair_index);
  put_u16(payload, header.base_sequence);
  put_u16(payload, header.symbol_len);
  payload.insert(payload.end(), symbol.begin(), symbol.end());
  return payload;
}

bool parse_repair_header(const Packet& packet, FecRepairHeader* header) {
  const BufferRef& p = packet.payload;
  if (p.size() < kFecRepairHeaderSize) return false;
  header->scheme = p[0];
  header->k = p[1];
  header->m = p[2];
  header->repair_index = p[3];
  header->base_sequence = static_cast<std::uint16_t>((p[4] << 8) | p[5]);
  header->symbol_len = static_cast<std::uint16_t>((p[6] << 8) | p[7]);
  if (header->scheme != static_cast<std::uint8_t>(FecScheme::kXorParity) &&
      header->scheme != static_cast<std::uint8_t>(FecScheme::kReedSolomon)) {
    return false;
  }
  if (header->k == 0 || header->k > kMaxFecK) return false;
  if (header->m == 0 || header->m > kMaxFecM) return false;
  if (header->repair_index >= header->m) return false;
  if (header->scheme == static_cast<std::uint8_t>(FecScheme::kXorParity) &&
      header->m != 1) {
    return false;
  }
  // The length prefix alone needs two symbol bytes; anything shorter (or a
  // symbol_len that disagrees with the payload, e.g. a truncated repair
  // packet) cannot be trusted for reconstruction.
  if (header->symbol_len < 2) return false;
  if (p.size() != kFecRepairHeaderSize + header->symbol_len) return false;
  return true;
}

FecEncoder::FecEncoder(const FecConfig& config, BufferArena* arena)
    : config_(config),
      arena_(arena != nullptr ? arena : &BufferArena::scratch()) {
  PB_CHECK(config.k >= 1 && config.k <= kMaxFecK);
  PB_CHECK(config.m >= 0 && config.m <= kMaxFecM);
  PB_CHECK(config.scheme == FecScheme::kXorParity ||
           config.scheme == FecScheme::kReedSolomon);
  if (config.scheme == FecScheme::kXorParity) PB_CHECK(config.m <= 1);
}

void FecEncoder::set_m(int m) {
  int clamped = std::clamp(m, 0, kMaxFecM);
  if (config_.scheme == FecScheme::kXorParity) clamped = std::min(clamped, 1);
  config_.m = clamped;
}

int FecEncoder::protect(std::vector<Packet>* packets) {
  if (config_.m <= 0 || packets->empty()) return 0;
  const std::size_t media_count = packets->size();
  std::vector<Packet> repairs;

  for (std::size_t begin = 0; begin < media_count;
       begin += static_cast<std::size_t>(config_.k)) {
    const int count = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(config_.k),
                              media_count - begin));
    std::size_t max_wire = 0;
    for (int j = 0; j < count; ++j) {
      max_wire = std::max(max_wire, (*packets)[begin + j].wire_size());
    }
    const std::size_t symbol_len = 2 + max_wire;

    // One pieces descriptor per media packet (18-byte stack prefix + a
    // borrowed payload slice); the pre-arena encoder materialized every
    // packet's padded symbol here — two copies of each wire image.
    std::vector<SymbolPieces> pieces;
    pieces.reserve(static_cast<std::size_t>(count));
    for (int j = 0; j < count; ++j) {
      const Packet& p = (*packets)[begin + j];
      pieces.push_back(make_symbol_pieces(p));
      common::ledger_legacy(2 * p.wire_size());
    }

    const Packet& first = (*packets)[begin];
    for (int r = 0; r < config_.m; ++r) {
      // Build the repair payload in place: header bytes, then the symbol
      // accumulated directly into the arena allocation.
      Packet repair;
      repair.payload = arena_->allocate(kFecRepairHeaderSize + symbol_len);
      std::uint8_t* d = repair.payload.mutable_data();
      d[0] = static_cast<std::uint8_t>(config_.scheme);
      d[1] = static_cast<std::uint8_t>(count);
      d[2] = static_cast<std::uint8_t>(config_.m);
      d[3] = static_cast<std::uint8_t>(r);
      d[4] = static_cast<std::uint8_t>(first.header.sequence >> 8);
      d[5] = static_cast<std::uint8_t>(first.header.sequence & 0xFF);
      d[6] = static_cast<std::uint8_t>(symbol_len >> 8);
      d[7] = static_cast<std::uint8_t>(symbol_len & 0xFF);
      std::uint8_t* symbol = d + kFecRepairHeaderSize;
      std::memset(symbol, 0, symbol_len);
      for (int j = 0; j < count; ++j) {
        addmul_pieces(symbol, pieces[static_cast<std::size_t>(j)],
                      coefficient(config_.scheme, r, j));
      }
      common::ledger_legacy(symbol_len);  // old serialize_repair_payload copy

      repair.header.payload_type = kPayloadTypeFec;
      repair.header.sequence = next_repair_sequence_++;
      repair.header.timestamp = first.header.timestamp;
      repair.header.ssrc = first.header.ssrc + config_.ssrc_offset;
      repair.crc_present = first.crc_present;
      stats_.repair_bytes += repair.wire_size();
      repairs.push_back(std::move(repair));
    }
    stats_.windows += 1;
    stats_.media_packets += static_cast<std::uint64_t>(count);
  }

  stats_.repair_packets += repairs.size();
  const int appended = static_cast<int>(repairs.size());
  for (Packet& repair : repairs) packets->push_back(std::move(repair));
  return appended;
}

FecDecoder::FecDecoder(BufferArena* arena, bool expect_crc)
    : arena_(arena != nullptr ? arena : &BufferArena::scratch()),
      expect_crc_(expect_crc) {}

std::vector<Packet> FecDecoder::process(std::vector<Packet> packets) {
  std::vector<Packet> media;
  media.reserve(packets.size());

  struct RepairEntry {
    FecRepairHeader header;
    BufferRef symbol;  // borrowed slice of the repair packet's payload
  };
  // Window key: everything a consistent window must agree on. std::map
  // keys keep recovery order deterministic regardless of arrival order.
  using WindowKey =
      std::tuple<std::uint16_t, std::uint8_t, std::uint8_t, std::uint8_t,
                 std::uint16_t>;
  std::map<WindowKey, std::vector<RepairEntry>> windows;

  for (Packet& packet : packets) {
    if (!packet.is_fec_repair()) {
      media.push_back(std::move(packet));
      continue;
    }
    stats_.repair_packets_seen += 1;
    FecRepairHeader header;
    if (!parse_repair_header(packet, &header)) {
      stats_.repair_packets_invalid += 1;
      continue;
    }
    const WindowKey key{header.base_sequence, header.k, header.m,
                        header.scheme, header.symbol_len};
    std::vector<RepairEntry>& entries = windows[key];
    // A duplicated repair packet (same window, same index) adds no new
    // equation; keep the first arrival.
    bool duplicate = false;
    for (const RepairEntry& e : entries) {
      if (e.header.repair_index == header.repair_index) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    RepairEntry entry;
    entry.header = header;
    entry.symbol = packet.payload.slice(
        kFecRepairHeaderSize, packet.payload.size() - kFecRepairHeaderSize);
    common::ledger_legacy(entry.symbol.size());
    entries.push_back(std::move(entry));
  }
  if (windows.empty()) return media;

  std::vector<Packet> recovered_packets;
  for (auto& [key, entries] : windows) {
    stats_.windows_seen += 1;
    const FecRepairHeader& w = entries.front().header;
    const FecScheme scheme = static_cast<FecScheme>(w.scheme);
    const int k = w.k;
    const std::size_t symbol_len = w.symbol_len;

    // Which window offsets arrived? First arrival wins for the solve;
    // duplicates stay in the media stream for the depacketizer to judge.
    std::vector<const Packet*> present(static_cast<std::size_t>(k), nullptr);
    for (const Packet& packet : media) {
      const std::uint16_t offset = static_cast<std::uint16_t>(
          packet.header.sequence - w.base_sequence);
      if (offset < k && present[offset] == nullptr) {
        present[offset] = &packet;
      }
    }
    std::vector<int> missing;
    for (int j = 0; j < k; ++j) {
      if (present[static_cast<std::size_t>(j)] == nullptr) missing.push_back(j);
    }
    if (missing.empty()) continue;  // nothing to do; repairs are consumed
    if (missing.size() > entries.size()) {
      stats_.windows_unrecoverable += 1;
      continue;
    }

    // Deterministic equation choice: lowest repair indices first.
    std::sort(entries.begin(), entries.end(),
              [](const RepairEntry& a, const RepairEntry& b) {
                return a.header.repair_index < b.header.repair_index;
              });
    const std::size_t e = missing.size();

    // RHS_r = repair symbol r minus (XOR) the present packets'
    // contributions; the unknowns are the missing symbols.
    std::vector<std::vector<std::uint8_t>> rhs;
    std::vector<std::vector<std::uint8_t>> matrix;  // e rows of e coefficients
    bool window_ok = true;
    for (std::size_t r = 0; r < e; ++r) {
      const RepairEntry& entry = entries[r];
      if (entry.symbol.size() != symbol_len) {  // parse enforces; defensive
        window_ok = false;
        break;
      }
      std::vector<std::uint8_t> b = entry.symbol.to_vector();
      common::ledger_copied(b.size());
      common::ledger_legacy(b.size());
      for (int j = 0; j < k; ++j) {
        const Packet* p = present[static_cast<std::size_t>(j)];
        if (p == nullptr) continue;
        // A "present" packet longer than the window's symbol can only be
        // the product of header damage; its bytes cannot participate in a
        // symbol_len-sized combination.
        if (p->wire_size() + 2 > symbol_len) {
          window_ok = false;
          break;
        }
        // Stream the packet's symbol through the kernel instead of
        // materializing it (the pre-arena decoder built a padded copy of
        // every present packet for every equation).
        addmul_pieces(b.data(), make_symbol_pieces(*p),
                      coefficient(scheme, entry.header.repair_index, j));
        common::ledger_legacy(2 * p->wire_size());
      }
      if (!window_ok) break;
      rhs.push_back(std::move(b));
      std::vector<std::uint8_t> row(e);
      for (std::size_t t = 0; t < e; ++t) {
        row[t] = coefficient(scheme, entry.header.repair_index, missing[t]);
      }
      matrix.push_back(std::move(row));
    }

    // Gauss–Jordan over GF(256). The Cauchy construction guarantees a
    // nonzero pivot for honest windows; hostile headers (e.g. an XOR
    // window claiming m > 1 survived parse? it cannot — but a forged RS
    // index set could repeat rows) fall out here as a singular system.
    if (window_ok) {
      for (std::size_t col = 0; col < e && window_ok; ++col) {
        std::size_t pivot = col;
        while (pivot < e && matrix[pivot][col] == 0) ++pivot;
        if (pivot == e) {
          window_ok = false;
          break;
        }
        std::swap(matrix[col], matrix[pivot]);
        std::swap(rhs[col], rhs[pivot]);
        const std::uint8_t inv = gf256_inv(matrix[col][col]);
        for (std::size_t t = 0; t < e; ++t) {
          matrix[col][t] = gf256_mul(matrix[col][t], inv);
        }
        gf256_scale(rhs[col].data(), inv, symbol_len);
        for (std::size_t r = 0; r < e; ++r) {
          if (r == col || matrix[r][col] == 0) continue;
          const std::uint8_t c = matrix[r][col];
          for (std::size_t t = 0; t < e; ++t) {
            matrix[r][t] =
                static_cast<std::uint8_t>(matrix[r][t] ^ gf256_mul(c, matrix[col][t]));
          }
          gf256_addmul(rhs[r].data(), rhs[col].data(), c, symbol_len);
        }
      }
    }
    if (!window_ok) {
      stats_.windows_unrecoverable += 1;
      continue;
    }

    for (std::size_t t = 0; t < e; ++t) {
      const std::vector<std::uint8_t>& symbol = rhs[t];
      const std::size_t len =
          static_cast<std::size_t>((symbol[0] << 8) | symbol[1]);
      Packet recovered;
      bool ok = len >= kHeaderWireSize && len + 2 <= symbol.size();
      if (ok) {
        // The recovered wire image goes into the arena once; the parsed
        // payload is a slice of it (the pre-arena decoder copied the wire
        // out of the symbol and then copied the payload out of the wire).
        const BufferRef wire = arena_->copy(symbol.data() + 2, len);
        common::ledger_legacy(len + (len - kHeaderWireSize));
        ok = parse_packet_ref(wire, &recovered, expect_crc_) &&
             !recovered.is_fec_repair();
      }
      if (!ok) {
        stats_.recovered_unparseable += 1;
        continue;
      }
      if (expect_crc_ && !(recovered.crc_present && recovered.crc_ok)) {
        // The solve produced bytes whose own trailer disagrees (or whose
        // X bit vanished) — symbol damage FEC could not see. Never hand
        // garbage downstream; recovered packets bypass the verify stage.
        stats_.recovered_crc_failed += 1;
        continue;
      }
      recovered.recovered = true;
      stats_.packets_recovered += 1;
      recovered_packets.push_back(std::move(recovered));
    }
  }

  // Splice each reconstruction in by sequence (RFC 1982 serial order), so
  // the depacketizer sees the stream a loss-free channel would have
  // delivered — modulo whatever reordering the network itself introduced.
  for (Packet& rec : recovered_packets) {
    auto it = media.begin();
    while (it != media.end() &&
           static_cast<std::int16_t>(it->header.sequence -
                                     rec.header.sequence) <= 0) {
      ++it;
    }
    media.insert(it, std::move(rec));
  }
  return media;
}

}  // namespace pbpair::net
