// Unit tests for src/common: status/result, rng, crc32c, serde (including the
// section-7 robustness property: decoding arbitrary bytes never crashes), uuid,
// coverage counters.

#include <gtest/gtest.h>

#include <set>

#include "src/common/bytes.h"
#include "src/common/cover.h"
#include "src/common/crc32c.h"
#include "src/common/crc32c_internal.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/common/status.h"
#include "src/common/uuid.h"

namespace ss {
namespace {

TEST(Status, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(Status, CodesAndMessages) {
  Status status = Status::Corruption("bad trailing uuid");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(status.ToString(), "Corruption: bad trailing uuid");
}

TEST(Status, EqualityIsByCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_NE(Status::NotFound(), Status::Corruption());
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= 7; ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(Result, ValueAndError) {
  Result<int> ok_result = 42;
  ASSERT_TRUE(ok_result.ok());
  EXPECT_EQ(ok_result.value(), 42);
  EXPECT_EQ(ok_result.value_or(7), 42);

  Result<int> err_result = Status::IoError("boom");
  ASSERT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.code(), StatusCode::kIoError);
  EXPECT_EQ(err_result.value_or(7), 7);
}

Result<int> HelperReturnsDouble(Result<int> input) {
  SS_ASSIGN_OR_RETURN(int v, input);
  return v * 2;
}

TEST(Result, AssignOrReturnMacro) {
  EXPECT_EQ(HelperReturnsDouble(21).value(), 42);
  EXPECT_EQ(HelperReturnsDouble(Status::NotFound()).code(), StatusCode::kNotFound);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.Next() == b.Next()) ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(10), 10u);
  }
  EXPECT_EQ(rng.Below(0), 0u);
  EXPECT_EQ(rng.Below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const uint64_t v = rng.Range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values hit
}

TEST(Rng, RangeSignedHandlesNegatives) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const int64_t v = rng.RangeSigned(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  EXPECT_FALSE(rng.Chance(0.0));
  EXPECT_TRUE(rng.Chance(1.0));
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.Chance(0.25) ? 1 : 0;
  }
  EXPECT_GT(hits, 2100);
  EXPECT_LT(hits, 2900);
}

TEST(Rng, WeightedIndexZeroWeightNeverPicked) {
  Rng rng(19);
  std::vector<uint32_t> weights = {0, 5, 0, 5};
  for (int i = 0; i < 500; ++i) {
    const size_t pick = rng.WeightedIndex(weights);
    EXPECT_TRUE(pick == 1 || pick == 3);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(23);
  Rng child = a.Split();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  Bytes zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  // 32 bytes of 0xff.
  Bytes ones(32, 0xff);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62a8ab43u);
}

TEST(Crc32c, CheckValue) {
  // RFC 3720 / iSCSI check value: the ASCII digits "123456789".
  Bytes digits = BytesOf("123456789");
  EXPECT_EQ(Crc32c(digits.data(), digits.size()), 0xE3069283u);
  EXPECT_EQ(crc32c_internal::Table(digits.data(), digits.size(), 0), 0xE3069283u);
}

// The hardware kernel must give the table kernel's bits for every length (around the
// 8-byte stride), every start alignment and chained calls, or on-disk frames written on
// one CPU would not verify on another.
TEST(Crc32c, HardwareMatchesTable) {
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this CPU";
  }
  Rng rng(0xc3c);
  Bytes data(1100 + 16);
  for (uint8_t& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 1100; ++n) {
      const uint8_t* p = data.data() + offset;
      ASSERT_EQ(crc32c_internal::Hardware(p, n, 0), crc32c_internal::Table(p, n, 0))
          << "offset " << offset << " length " << n;
    }
  }
  for (size_t split = 0; split <= 200; ++split) {
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    const uint32_t head = crc32c_internal::Hardware(data.data() + 3, split, seed);
    EXPECT_EQ(crc32c_internal::Hardware(data.data() + 3 + split, 200 - split, head),
              crc32c_internal::Table(data.data() + 3, 200, seed))
        << "split " << split;
  }
}

TEST(Crc32c, Chaining) {
  Bytes data = BytesOf("hello world");
  const uint32_t whole = Crc32c(data.data(), data.size());
  const uint32_t part1 = Crc32c(data.data(), 5);
  const uint32_t chained = Crc32c(data.data() + 5, data.size() - 5, part1);
  EXPECT_EQ(whole, chained);
}

TEST(Crc32c, DetectsSingleBitFlip) {
  Bytes data = BytesOf("some payload bytes");
  const uint32_t original = Crc32c(data.data(), data.size());
  data[4] ^= 0x01;
  EXPECT_NE(original, Crc32c(data.data(), data.size()));
}

TEST(Uuid, RandomIsDeterministicPerSeed) {
  Rng a(5);
  Rng b(5);
  EXPECT_EQ(Uuid::Random(a), Uuid::Random(b));
}

TEST(Uuid, ZeroAndToString) {
  EXPECT_EQ(Uuid::Zero().ToString(), std::string(32, '0'));
  Rng rng(6);
  EXPECT_EQ(Uuid::Random(rng).ToString().size(), 32u);
}

TEST(Serde, RoundTripAllTypes) {
  Rng rng(31);
  Writer w;
  w.PutU8(0xab);
  w.PutU16(0x1234);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  const Uuid uuid = Uuid::Random(rng);
  w.PutUuid(uuid);
  w.PutBlob(BytesOf("blob contents"));
  w.PutRaw(BytesOf("raw"));

  Reader r(w.bytes());
  EXPECT_EQ(r.GetU8().value(), 0xab);
  EXPECT_EQ(r.GetU16().value(), 0x1234);
  EXPECT_EQ(r.GetU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.GetUuid().value(), uuid);
  EXPECT_EQ(r.GetBlob().value(), BytesOf("blob contents"));
  EXPECT_EQ(r.GetRaw(3).value(), BytesOf("raw"));
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serde, TruncatedInputIsCorruptionNotCrash) {
  Bytes short_input = {0x01, 0x02};
  Reader r(short_input);
  EXPECT_EQ(r.GetU32().code(), StatusCode::kCorruption);
  EXPECT_EQ(r.GetU64().code(), StatusCode::kCorruption);
}

TEST(Serde, BlobLengthBeyondInputIsCorruption) {
  Writer w;
  w.PutU32(1000);  // claims 1000 bytes follow
  w.PutRaw(BytesOf("only a few"));
  Reader r(w.bytes());
  EXPECT_EQ(r.GetBlob().code(), StatusCode::kCorruption);
}

TEST(Serde, BlobLengthBoundRejectsHugeClaims) {
  Writer w;
  w.PutU32(0xffffffffu);
  Reader r(w.bytes());
  EXPECT_EQ(r.GetBlob(/*max_len=*/1024).code(), StatusCode::kCorruption);
}

// Section 7 robustness property: feeding arbitrary bytes through every reader method
// never crashes — failures are always Status values. (The analogue of the paper's
// Crux-verified panic-freedom, checked dynamically.)
class SerdeFuzz : public testing::TestWithParam<uint64_t> {};

TEST_P(SerdeFuzz, ArbitraryBytesNeverCrash) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    Bytes junk(rng.Below(64));
    for (auto& b : junk) {
      b = static_cast<uint8_t>(rng.Below(256));
    }
    Reader r(junk);
    while (!r.AtEnd()) {
      switch (rng.Below(6)) {
        case 0:
          (void)r.GetU8();
          break;
        case 1:
          (void)r.GetU16();
          break;
        case 2:
          (void)r.GetU32();
          break;
        case 3:
          (void)r.GetU64();
          break;
        case 4:
          (void)r.GetUuid();
          break;
        default:
          if (!r.GetBlob(4096).ok()) {
            // Corrupt length prefix: stop consuming this buffer.
            goto next_round;
          }
          break;
      }
    }
  next_round:;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeFuzz, testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Coverage, CountsHits) {
  Coverage::Global().Reset();
  SS_COVER("test.site");
  SS_COVER("test.site");
  EXPECT_EQ(Coverage::Global().Count("test.site"), 2u);
  EXPECT_EQ(Coverage::Global().Count("test.never"), 0u);
  Coverage::Global().Reset();
  EXPECT_EQ(Coverage::Global().Count("test.site"), 0u);
}

TEST(Bytes, HexDumpTruncates) {
  Bytes data(100, 0xaa);
  const std::string dump = HexDump(data, 4);
  EXPECT_EQ(dump, "aa aa aa aa ...");
}

}  // namespace
}  // namespace ss
