// Differential tests: the word-at-a-time tile codecs (rice bitstream,
// Hamming(72,64) parity, CRC-32) against their bit-serial and bytewise
// references in check/codec_oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "spacefts/check/codec_oracle.hpp"
#include "spacefts/common/random.hpp"
#include "spacefts/edac/crc32.hpp"
#include "spacefts/edac/hamming.hpp"
#include "spacefts/rice/bitstream.hpp"
#include "spacefts/rice/rice.hpp"

namespace sc = spacefts::check;
namespace se = spacefts::edac;
namespace sr = spacefts::rice;
using spacefts::common::Rng;

namespace {

/// What one read did: its value or its error message, and where the reader
/// stood afterwards.
struct ReadOutcome {
  bool threw = false;
  std::string error;
  std::uint64_t value = 0;
  std::size_t position = 0;
  bool operator==(const ReadOutcome&) const = default;
};

/// read_bits(count), read_unary(max_run), or one Rice code word: the
/// production reader's read_rice(count, max_run), which the bit-serial
/// reader spells as read_unary(max_run) then read_bits(count).
struct ReadOp {
  enum Kind { kBits, kUnary, kRice } kind = kBits;
  unsigned count = 0;
  std::uint64_t max_run = 0;
};

std::uint64_t read(sr::BitReader& reader, const ReadOp& op) {
  switch (op.kind) {
    case ReadOp::kBits: return reader.read_bits(op.count);
    case ReadOp::kUnary: return reader.read_unary(op.max_run);
    case ReadOp::kRice: return reader.read_rice(op.count, op.max_run);
  }
  return 0;
}

std::uint64_t read(sc::OracleBitReader& reader, const ReadOp& op) {
  switch (op.kind) {
    case ReadOp::kBits: return reader.read_bits(op.count);
    case ReadOp::kUnary: return reader.read_unary(op.max_run);
    case ReadOp::kRice: {
      const std::uint64_t quotient = reader.read_unary(op.max_run);
      return (quotient << op.count) | reader.read_bits(op.count);
    }
  }
  return 0;
}

template <class Reader>
ReadOutcome apply(Reader& reader, const ReadOp& op) {
  ReadOutcome out;
  try {
    out.value = read(reader, op);
  } catch (const sr::BitstreamError& e) {
    out.threw = true;
    out.error = e.what();
  }
  out.position = reader.position();
  return out;
}

ReadOp draw_read_op(Rng& rng) {
  ReadOp op;
  op.kind = static_cast<ReadOp::Kind>(rng.below(3));
  op.count = static_cast<unsigned>(
      rng.below(op.kind == ReadOp::kRice ? 24 : 65));
  op.max_run = rng.bernoulli(0.5) ? ~std::uint64_t{0} : rng.below(80);
  return op;
}

/// Bytes that carry long one-runs as well as mixed bits.
std::vector<std::uint8_t> draw_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) {
    b = rng.bernoulli(0.5) ? 0xFF : static_cast<std::uint8_t>(rng.below(256));
  }
  return bytes;
}

/// Decode outcome of a whole stream: the samples, or the error message.
template <class Decode>
std::pair<std::vector<std::uint16_t>, std::string> decode_outcome(
    Decode decode, std::span<const std::uint8_t> stream, std::size_t count) {
  try {
    return {decode(stream, count), ""};
  } catch (const sr::BitstreamError& e) {
    return {{}, e.what()};
  }
}

/// The k field of every block of a well-formed compress16 stream.
std::set<unsigned> block_ks(std::span<const std::uint8_t> stream,
                            std::size_t count) {
  std::set<unsigned> ks;
  sc::OracleBitReader reader(stream);
  for (std::size_t done = 0; done < count; done += sr::kBlockSamples) {
    const auto k = static_cast<unsigned>(reader.read_bits(5));
    ks.insert(k);
    const std::size_t len = std::min(sr::kBlockSamples, count - done);
    for (std::size_t j = 0; j < len; ++j) {
      if (k == 31) {
        (void)reader.read_bits(16);
      } else {
        (void)reader.read_unary();
        (void)reader.read_bits(k);
      }
    }
  }
  return ks;
}

/// Samples whose residuals make the encoder pick Rice parameter k <= 14.
/// For k >= 2, |delta| in [3·2^(k-2), 2^k - 1] maps every residual into
/// [2^k, 2^(k+1)), most of them at or above 1.5·2^k: cost(k) then beats
/// cost(k - 1) and ties cost(k + 1), and stays within the verbatim 16 bits
/// per sample.  k = 1 and k = 0 take |delta| = 2 and 0.  The walk turns
/// around before it leaves [0, 65535].
std::vector<std::uint16_t> samples_for_k(unsigned k, std::size_t n, Rng& rng) {
  std::vector<std::uint16_t> out;
  std::int32_t value = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::int32_t step = k == 1 ? 2 : 0;
    if (k >= 2) {
      const std::int32_t lo = 3 << (k - 2);
      const std::int32_t hi = (1 << k) - 1;
      step = lo + static_cast<std::int32_t>(rng.below(hi - lo + 1));
    }
    value = value + step <= 65535 ? value + step : value - step;
    out.push_back(static_cast<std::uint16_t>(value));
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------------ writer

TEST(CodecOracle, BitWriterMatchesBitSerialOnRandomOps) {
  Rng rng(0xC0DEC1);
  for (int trial = 0; trial < 400; ++trial) {
    sr::BitWriter fast;
    sc::OracleBitWriter slow;
    const std::size_t ops = 1 + rng.below(48);
    for (std::size_t i = 0; i < ops; ++i) {
      if (rng.bernoulli(0.3)) {
        const std::uint64_t run = rng.below(301);
        fast.write_unary(run);
        slow.write_unary(run);
      } else {
        // Counts 57-64 straddle the accumulator's flush; the bits above
        // count are garbage both writers must drop.
        const auto count = static_cast<unsigned>(rng.below(65));
        const std::uint64_t value = rng();
        fast.write_bits(value, count);
        slow.write_bits(value, count);
      }
      ASSERT_EQ(fast.bit_count(), slow.bit_count()) << "trial " << trial;
    }
    ASSERT_EQ(fast.finish(), slow.finish()) << "trial " << trial;
    EXPECT_EQ(fast.bit_count(), 0u);
  }
}

TEST(CodecOracle, BitWriterMatchesBitSerialForEveryCountAtEveryPhase) {
  // Each count twice in a row, as bits and as a unary run, after every
  // phase of the accumulator: back-to-back long writes are where a flush
  // that leaves too many bits pending overflows the accumulator.
  Rng rng(0xC0DEC2);
  for (unsigned phase = 0; phase < 64; ++phase) {
    for (unsigned count = 0; count <= 64; ++count) {
      sr::BitWriter fast;
      sc::OracleBitWriter slow;
      const std::uint64_t lead = rng();
      fast.write_bits(lead, phase);
      slow.write_bits(lead, phase);
      for (int twice = 0; twice < 2; ++twice) {
        const std::uint64_t value = rng();
        fast.write_bits(value, count);
        slow.write_bits(value, count);
      }
      for (int twice = 0; twice < 2; ++twice) {
        fast.write_unary(count);
        slow.write_unary(count);
      }
      fast.write_unary(phase + count);
      slow.write_unary(phase + count);
      ASSERT_EQ(fast.bit_count(), slow.bit_count());
      ASSERT_EQ(fast.finish(), slow.finish())
          << "phase " << phase << " count " << count;
    }
  }
}

// ------------------------------------------------------------------ reader

TEST(CodecOracle, BitReaderMatchesBitSerialFromEveryBitOffset) {
  Rng rng(0xC0DEC3);
  for (std::size_t length = 0; length <= 17; ++length) {
    for (int trial = 0; trial < 3; ++trial) {
      const auto bytes = draw_bytes(rng, length);
      for (std::size_t start = 0; start <= length * 8; ++start) {
        sr::BitReader fast(bytes);
        sc::OracleBitReader slow(bytes);
        for (std::size_t skipped = 0; skipped < start;) {
          const auto step = static_cast<unsigned>(
              std::min<std::size_t>(64, start - skipped));
          ASSERT_EQ(fast.read_bits(step), slow.read_bits(step));
          skipped += step;
        }
        ASSERT_EQ(fast.position(), start);
        for (int i = 0; i < 24; ++i) {
          const ReadOp op = draw_read_op(rng);
          ASSERT_EQ(apply(fast, op), apply(slow, op))
              << "length " << length << " start " << start << " op " << i
              << " kind " << op.kind << " count " << op.count << " max_run "
              << op.max_run;
        }
      }
    }
  }
}

TEST(CodecOracle, UnaryRunsAcrossWindowsMatchBitSerial) {
  // A 3-bit prefix, then runs far longer than one 64-bit window that end
  // with the buffer (tail 0), on its last bits (tail 1) or before another
  // field (tail 2), under bounds just below, at and above the run.
  for (std::size_t run = 60; run <= 200; ++run) {
    for (int tail = 0; tail <= 2; ++tail) {
      sc::OracleBitWriter writer;
      writer.write_bits(0b101, 3);
      for (std::size_t i = 0; i < run; ++i) writer.write_bits(1, 1);
      if (tail == 0) {
        while (writer.bit_count() % 8 != 0) writer.write_bits(1, 1);
      } else {
        writer.write_bits(0, 1);
      }
      if (tail == 2) writer.write_bits(0x5, 7);
      const auto bytes = writer.finish();
      for (const std::uint64_t max_run :
           {std::uint64_t{run - 1}, std::uint64_t{run}, std::uint64_t{run + 1},
            ~std::uint64_t{0}}) {
        sr::BitReader fast(bytes);
        sc::OracleBitReader slow(bytes);
        ASSERT_EQ(apply(fast, {ReadOp::kBits, 3, 0}),
                  apply(slow, {ReadOp::kBits, 3, 0}));
        for (const auto kind : {ReadOp::kUnary, ReadOp::kRice}) {
          sr::BitReader fast_copy = fast;
          sc::OracleBitReader slow_copy = slow;
          ASSERT_EQ(apply(fast_copy, {kind, 5, max_run}),
                    apply(slow_copy, {kind, 5, max_run}))
              << "run " << run << " tail " << tail << " max_run " << max_run
              << " kind " << kind;
        }
      }
    }
  }
}

// ------------------------------------------------------------------ rice

TEST(CodecOracle, Compress16MatchesReferenceEncoder) {
  Rng rng(0xC0DEC4);
  std::set<unsigned> seen;
  for (const std::size_t length :
       {std::size_t{1}, std::size_t{7}, std::size_t{31}, std::size_t{33},
        std::size_t{95}, std::size_t{161}, std::size_t{517}}) {
    std::vector<std::vector<std::uint16_t>> inputs;
    for (unsigned k = 0; k <= 14; ++k) {
      inputs.push_back(samples_for_k(k, length, rng));
    }
    std::vector<std::uint16_t> noise(length);  // full entropy: escape blocks
    for (auto& s : noise) s = static_cast<std::uint16_t>(rng.below(65536));
    inputs.push_back(noise);
    std::vector<std::uint16_t> mixed;  // every regime inside one stream
    for (const auto& in : inputs) mixed.insert(mixed.end(), in.begin(), in.end());
    inputs.push_back(mixed);

    for (const auto& samples : inputs) {
      const auto stream = sr::compress16(samples);
      ASSERT_EQ(stream, sc::oracle_compress16(samples)) << "length " << length;
      EXPECT_EQ(sr::decompress16(stream, samples.size()), samples);
      EXPECT_EQ(sc::oracle_decompress16(stream, samples.size()), samples);
      const auto ks = block_ks(stream, samples.size());
      seen.insert(ks.begin(), ks.end());
    }
  }
  // A 16-bit block can win with k = 0..14 or the escape; k = 15 and 16
  // cost at least as much as the verbatim block, so the encoder never picks
  // them (the decoder test below covers them).
  std::set<unsigned> expected{31};
  for (unsigned k = 0; k <= 14; ++k) expected.insert(k);
  EXPECT_EQ(seen, expected);
}

TEST(CodecOracle, Decompress16MatchesReferenceDecoderForEveryK) {
  Rng rng(0xC0DEC5);
  for (int trial = 0; trial < 60; ++trial) {
    // A hand-built stream: random blocks with every k in 0..16 and the
    // escape, the last one short (odd count).
    sc::OracleBitWriter writer;
    std::size_t count = 0;
    const std::size_t blocks = 1 + rng.below(12);
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t len = b + 1 < blocks ? sr::kBlockSamples
                                             : 1 + 2 * rng.below(16);
      const auto pick = static_cast<unsigned>(rng.below(18));
      const unsigned k = pick == 17 ? 31 : pick;
      writer.write_bits(k, 5);
      for (std::size_t j = 0; j < len; ++j) {
        if (k == 31) {
          writer.write_bits(rng(), 16);
        } else {
          const std::uint64_t mapped = rng.below(std::uint64_t{1} << (k + 1));
          writer.write_unary(mapped >> k);
          writer.write_bits(mapped, k);
        }
      }
      count += len;
    }
    const auto stream = writer.finish();
    const auto fast = decode_outcome(sr::decompress16, stream, count);
    ASSERT_EQ(fast, decode_outcome(sc::oracle_decompress16, stream, count));
    ASSERT_TRUE(fast.second.empty()) << fast.second;

    // Damaged copies: one flipped bit, then every truncation.
    auto flipped = stream;
    flipped[rng.below(flipped.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    ASSERT_EQ(decode_outcome(sr::decompress16, flipped, count),
              decode_outcome(sc::oracle_decompress16, flipped, count));
    for (std::size_t cut = 0; cut < stream.size(); ++cut) {
      const std::span<const std::uint8_t> head(stream.data(), cut);
      ASSERT_EQ(decode_outcome(sr::decompress16, head, count),
                decode_outcome(sc::oracle_decompress16, head, count))
          << "cut " << cut;
    }
  }
}

// ------------------------------------------------------------------ crc32

TEST(CodecOracle, Crc32MatchesBytewiseAtUnalignedOffsets) {
  Rng rng(0xC0DEC6);
  const auto buffer = draw_bytes(rng, 64 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::span<const std::uint8_t> bytes(buffer.data() + offset, length);
      ASSERT_EQ(se::crc32(bytes), sc::oracle_crc32(bytes))
          << "offset " << offset << " length " << length;
      const auto seed = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(se::crc32(bytes, seed), sc::oracle_crc32(bytes, seed));
    }
  }
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(sc::oracle_crc32(check), 0xCBF43926u);
}

TEST(CodecOracle, Crc32IncrementalMatchesOneShot) {
  Rng rng(0xC0DEC7);
  const auto message = draw_bytes(rng, 64);
  const std::span<const std::uint8_t> all(message);
  const std::uint32_t whole = sc::oracle_crc32(all);
  for (std::size_t split = 0; split <= message.size(); ++split) {
    const std::uint32_t head = se::crc32(all.first(split));
    ASSERT_EQ(se::crc32(all.subspan(split), head), whole) << "split " << split;
  }
}

// ------------------------------------------------------------------ hamming

TEST(CodecOracle, EncodeParityMatchesPositionXor) {
  ASSERT_EQ(se::encode_parity(0), sc::oracle_encode_parity(0));
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t word = std::uint64_t{1} << i;
    ASSERT_EQ(se::encode_parity(word), sc::oracle_encode_parity(word))
        << "bit " << i;
  }
  Rng rng(0xC0DEC8);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t word = rng();
    ASSERT_EQ(se::encode_parity(word), sc::oracle_encode_parity(word))
        << std::hex << word;
  }
}

TEST(CodecOracle, DecodeRepairsEverySingleFlip) {
  Rng rng(0xC0DEC9);
  std::vector<std::uint64_t> words{0, ~std::uint64_t{0}};
  for (int i = 0; i < 64; ++i) words.push_back(std::uint64_t{1} << i);
  for (int i = 0; i < 2'000; ++i) words.push_back(rng());
  for (const std::uint64_t word : words) {
    const std::uint8_t parity = sc::oracle_encode_parity(word);
    for (int bit = 0; bit < 72; ++bit) {
      std::uint64_t data = word;
      std::uint8_t check = parity;
      if (bit < 64) {
        data ^= std::uint64_t{1} << bit;
      } else {
        check = static_cast<std::uint8_t>(check ^ (1u << (bit - 64)));
      }
      const auto result = se::decode(data, check);
      ASSERT_EQ(result.status, se::DecodeStatus::kCorrected)
          << std::hex << word << std::dec << " bit " << bit;
      ASSERT_EQ(result.data, word) << std::hex << word << std::dec << " bit "
                                   << bit;
    }
  }
}
