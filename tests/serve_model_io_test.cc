#include "serve/model_io.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/crc32.h"
#include "data/synthetic.h"
#include "mvsc/anchor_unified.h"
#include "mvsc/out_of_sample.h"
#include "mvsc/unified.h"

namespace umvsc::serve {
namespace {

struct Fixture {
  data::MultiViewDataset train;
  data::MultiViewDataset test;
};

Fixture MakeFixture(std::uint64_t seed) {
  data::MultiViewConfig config;
  config.num_samples = 160;
  config.num_clusters = 3;
  config.views = {{12, data::ViewQuality::kInformative, 0.4},
                  {7, data::ViewQuality::kWeak, 1.0}};
  config.cluster_separation = 5.0;
  config.seed = seed;
  auto full = data::MakeGaussianMultiView(config);
  UMVSC_CHECK(full.ok(), "dataset generation failed");
  Fixture fx;
  const std::size_t n_train = 120;
  const std::size_t n = full->NumSamples();
  for (std::size_t v = 0; v < full->NumViews(); ++v) {
    fx.train.views.push_back(
        full->views[v].Block(0, 0, n_train, full->views[v].cols()));
    fx.test.views.push_back(full->views[v].Block(
        n_train, 0, n - n_train, full->views[v].cols()));
  }
  fx.train.labels.assign(full->labels.begin(),
                         full->labels.begin() + n_train);
  fx.train.name = "train";
  fx.test.name = "test";
  return fx;
}

mvsc::OutOfSampleModel MakeAnchorModel(const Fixture& fx) {
  mvsc::UnifiedOptions options;
  options.num_clusters = 3;
  options.seed = 4;
  options.anchors.enabled = true;
  options.anchors.num_anchors = 24;
  options.anchors.anchor_neighbors = 4;
  auto solved = mvsc::SolveUnifiedAnchors(fx.train, options);
  UMVSC_CHECK(solved.ok(), "anchor solve failed");
  auto model = mvsc::OutOfSampleModel::FitAnchor(std::move(solved->model));
  UMVSC_CHECK(model.ok(), "FitAnchor failed");
  return *std::move(model);
}

mvsc::OutOfSampleModel MakeExactModel(const Fixture& fx) {
  auto model = mvsc::OutOfSampleModel::Fit(fx.train, fx.train.labels,
                                           {0.7, 0.3});
  UMVSC_CHECK(model.ok(), "exact fit failed");
  return *std::move(model);
}

std::vector<std::size_t> PredictOrDie(const mvsc::OutOfSampleModel& model,
                                      const data::MultiViewDataset& batch) {
  auto labels = model.Predict(batch);
  UMVSC_CHECK(labels.ok(), "predict failed");
  return *std::move(labels);
}

TEST(ModelIoTest, AnchorModelRoundTripsWithIdenticalPredictions) {
  const Fixture fx = MakeFixture(31);
  const mvsc::OutOfSampleModel model = MakeAnchorModel(fx);
  const std::string bytes = ModelSerializer::Serialize(model);
  auto loaded = ModelSerializer::Deserialize(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_clusters(), model.num_clusters());
  ASSERT_TRUE(loaded->anchor_model().has_value());
  EXPECT_EQ(PredictOrDie(*loaded, fx.test), PredictOrDie(model, fx.test));
  // Serialization is deterministic: a round-tripped model re-serializes to
  // the exact same bytes.
  EXPECT_EQ(ModelSerializer::Serialize(*loaded), bytes);
}

TEST(ModelIoTest, ExactModelRoundTripsWithIdenticalPredictions) {
  const Fixture fx = MakeFixture(32);
  const mvsc::OutOfSampleModel model = MakeExactModel(fx);
  const std::string bytes = ModelSerializer::Serialize(model);
  auto loaded = ModelSerializer::Deserialize(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->anchor_model().has_value());
  EXPECT_EQ(PredictOrDie(*loaded, fx.test), PredictOrDie(model, fx.test));
  EXPECT_EQ(ModelSerializer::Serialize(*loaded), bytes);
}

TEST(ModelIoTest, EveryCorruptedPayloadByteIsRejected) {
  const Fixture fx = MakeFixture(33);
  const std::string bytes =
      ModelSerializer::Serialize(MakeAnchorModel(fx));
  // Past the 16-byte header (magic + version + kind) every byte sits in a
  // section frame — tag, length, payload, or CRC — and a flip anywhere must
  // come back as a clean error, never a crash or a silently-wrong model.
  for (std::size_t i = 16; i < bytes.size(); i += 41) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x20);
    auto loaded = ModelSerializer::Deserialize(corrupt);
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << i << " was accepted";
  }
}

TEST(ModelIoTest, EveryTruncationIsRejected) {
  const Fixture fx = MakeFixture(34);
  const std::string bytes =
      ModelSerializer::Serialize(MakeExactModel(fx));
  for (std::size_t len : {std::size_t{0}, std::size_t{3}, std::size_t{8},
                          std::size_t{15}, std::size_t{16}, std::size_t{40},
                          bytes.size() / 2, bytes.size() - 1}) {
    auto loaded = ModelSerializer::Deserialize(
        std::string_view(bytes.data(), len));
    EXPECT_FALSE(loaded.ok()) << "prefix of " << len << " bytes was accepted";
  }
}

TEST(ModelIoTest, FutureVersionIsRejectedAsFailedPrecondition) {
  const Fixture fx = MakeFixture(35);
  std::string bytes = ModelSerializer::Serialize(MakeAnchorModel(fx));
  // The version u32 sits right after the 8-byte magic, little-endian.
  bytes[8] = static_cast<char>(ModelSerializer::kFormatVersion + 1);
  auto loaded = ModelSerializer::Deserialize(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition)
      << loaded.status().ToString();
}

TEST(ModelIoTest, BadMagicIsRejected) {
  const Fixture fx = MakeFixture(36);
  std::string bytes = ModelSerializer::Serialize(MakeAnchorModel(fx));
  bytes[0] = 'X';
  auto loaded = ModelSerializer::Deserialize(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(ModelIoTest, TrailingBytesAreRejected) {
  const Fixture fx = MakeFixture(37);
  std::string bytes = ModelSerializer::Serialize(MakeAnchorModel(fx));
  bytes.push_back('\0');
  EXPECT_FALSE(ModelSerializer::Deserialize(bytes).ok());
}

/// Writes `value` as `width` little-endian bytes at bytes[at].
void PutLittleEndian(std::string* bytes, std::size_t at, std::uint64_t value,
                     std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    (*bytes)[at + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

// A NaN view weight with a valid CRC is well-framed but meaningless: the
// loader must reject it as it rejects a negative weight (NaN < 0 is false,
// so a sign check alone would let it through).
TEST(ModelIoTest, NonFiniteExactViewWeightIsRejected) {
  const Fixture fx = MakeFixture(39);
  std::string bytes = ModelSerializer::Serialize(MakeExactModel(fx));
  // The exact model section is the last one: u64 label count, the labels,
  // u64 weight count, the weights — then the u32 CRC closes the file.
  const std::size_t n = fx.train.NumSamples();
  const std::size_t views = fx.train.NumViews();
  const std::size_t payload_len = 8 + 8 * n + 8 + 8 * views;
  const std::size_t crc_at = bytes.size() - 4;
  const std::size_t payload_at = crc_at - payload_len;
  std::uint64_t framed_len = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    framed_len |= std::uint64_t{static_cast<unsigned char>(
                      bytes[payload_at - 8 + i])}
                  << (8 * i);
  }
  ASSERT_EQ(framed_len, payload_len);

  const std::size_t weight_at = payload_at + 8 + 8 * n + 8;
  PutLittleEndian(&bytes, weight_at,
                  std::bit_cast<std::uint64_t>(
                      std::numeric_limits<double>::quiet_NaN()),
                  8);
  PutLittleEndian(&bytes, crc_at, Crc32(bytes.data() + payload_at, payload_len),
                  4);
  auto loaded = ModelSerializer::Deserialize(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().ToString();
}

std::uint64_t GetLittleEndian(const std::string& bytes, std::size_t at) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    value |= std::uint64_t{static_cast<unsigned char>(bytes[at + i])}
             << (8 * i);
  }
  return value;
}

// A NaN anchor with a valid CRC would serve garbage labels (a NaN distance
// never wins a comparison); the loader re-enters FitAnchor, which must
// reject it.
TEST(ModelIoTest, NonFiniteAnchorValueIsRejected) {
  const Fixture fx = MakeFixture(40);
  std::string bytes = ModelSerializer::Serialize(MakeAnchorModel(fx));
  // Header (magic, version, kind: 16 bytes), then the meta section (u32
  // tag, u64 length, three u64 fields, u32 CRC: 40 bytes), then view 0's
  // section: u32 tag, u64 length, and a payload of means (u64 d, d
  // doubles), inverse stds (likewise) and the anchors (u64 m, u64 d, …).
  const std::size_t section_at = 16 + 40;
  const std::size_t payload_at = section_at + 4 + 8;
  const std::size_t payload_len = GetLittleEndian(bytes, section_at + 4);
  const std::size_t d = GetLittleEndian(bytes, payload_at);
  ASSERT_EQ(d, fx.train.views[0].cols());
  const std::size_t anchors_at = payload_at + 2 * (8 + 8 * d);
  ASSERT_EQ(GetLittleEndian(bytes, anchors_at + 8), d);

  PutLittleEndian(&bytes, anchors_at + 16 + 8 * 5,
                  std::bit_cast<std::uint64_t>(
                      std::numeric_limits<double>::quiet_NaN()),
                  8);
  PutLittleEndian(&bytes, payload_at + payload_len,
                  Crc32(bytes.data() + payload_at, payload_len), 4);
  auto loaded = ModelSerializer::Deserialize(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().ToString();
}

TEST(ModelIoTest, SaveThenLoadRoundTripsThroughAFile) {
  const Fixture fx = MakeFixture(38);
  const mvsc::OutOfSampleModel model = MakeAnchorModel(fx);
  const std::string path =
      ::testing::TempDir() + "/serve_model_io_test.model";
  ASSERT_TRUE(ModelSerializer::Save(model, path).ok());
  auto loaded = ModelSerializer::Load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(PredictOrDie(*loaded, fx.test), PredictOrDie(model, fx.test));
}

TEST(ModelIoTest, LoadOfAMissingFileIsNotFound) {
  auto loaded = ModelSerializer::Load("/nonexistent/umvsc/model.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace umvsc::serve
