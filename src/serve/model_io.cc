#include "serve/model_io.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/strings.h"
#include "la/matrix.h"
#include "la/vector.h"

namespace umvsc::serve {

namespace {

constexpr char kMagic[8] = {'U', 'M', 'V', 'S', 'C', 'M', 'D', 'L'};
constexpr std::uint32_t kKindAnchor = 1;
constexpr std::uint32_t kKindExact = 2;

// Section tags, in the fixed order every file carries them:
// one meta, then one view section per view, then one model section.
constexpr std::uint32_t kTagMeta = 1;
constexpr std::uint32_t kTagView = 2;
constexpr std::uint32_t kTagModel = 3;

// ---------------------------------------------------------------------------
// Little-endian writers.
// ---------------------------------------------------------------------------

void PutU32(std::string* out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(b, 4);
}

void PutU64(std::string* out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(b, 8);
}

void PutDoubles(std::string* out, const double* p, std::size_t count) {
  if constexpr (std::endian::native == std::endian::little) {
    out->append(reinterpret_cast<const char*>(p), count * sizeof(double));
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      PutU64(out, std::bit_cast<std::uint64_t>(p[i]));
    }
  }
}

void PutVector(std::string* out, const la::Vector& v) {
  PutU64(out, v.size());
  PutDoubles(out, v.data(), v.size());
}

void PutMatrix(std::string* out, const la::Matrix& m) {
  PutU64(out, m.rows());
  PutU64(out, m.cols());
  PutDoubles(out, m.data(), m.rows() * m.cols());
}

void AppendSection(std::string* out, std::uint32_t tag,
                   const std::string& payload) {
  PutU32(out, tag);
  PutU64(out, payload.size());
  out->append(payload);
  PutU32(out, Crc32(payload.data(), payload.size()));
}

// ---------------------------------------------------------------------------
// Bounds-checked little-endian reader. Every Read* returns false instead of
// reading past the end; element counts are checked against the remaining
// bytes BEFORE any allocation, so corrupt length fields cannot trigger an
// over-allocation.
// ---------------------------------------------------------------------------

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }

  bool ReadBytes(void* dst, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool ReadU32(std::uint32_t* v) {
    unsigned char b[4];
    if (!ReadBytes(b, 4)) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= std::uint32_t{b[i]} << (8 * i);
    return true;
  }

  bool ReadU64(std::uint64_t* v) {
    unsigned char b[8];
    if (!ReadBytes(b, 8)) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= std::uint64_t{b[i]} << (8 * i);
    return true;
  }

  bool ReadDoubles(double* dst, std::size_t count) {
    if constexpr (std::endian::native == std::endian::little) {
      return ReadBytes(dst, count * sizeof(double));
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t bits;
        if (!ReadU64(&bits)) return false;
        dst[i] = std::bit_cast<double>(bits);
      }
      return true;
    }
  }

  bool ReadVector(la::Vector* v) {
    std::uint64_t n;
    if (!ReadU64(&n)) return false;
    if (n > remaining() / sizeof(double)) return false;
    *v = la::Vector(static_cast<std::size_t>(n));
    return ReadDoubles(v->data(), v->size());
  }

  bool ReadMatrix(la::Matrix* m) {
    std::uint64_t rows, cols;
    if (!ReadU64(&rows) || !ReadU64(&cols)) return false;
    const std::uint64_t budget = remaining() / sizeof(double);
    if (rows != 0 && cols > budget / rows) return false;
    *m = la::Matrix(static_cast<std::size_t>(rows),
                    static_cast<std::size_t>(cols));
    return ReadDoubles(m->data(), m->rows() * m->cols());
  }

  /// Advances over `n` bytes and returns them as a view into the buffer.
  bool ReadView(std::size_t n, std::string_view* view) {
    if (remaining() < n) return false;
    *view = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

Status Truncated() { return Status::IoError("model file is truncated"); }

/// Reads one `tag` section and hands back its CRC-verified payload.
Status ReadSection(Reader& r, std::uint32_t tag, std::string_view* payload) {
  std::uint32_t got_tag;
  std::uint64_t len;
  if (!r.ReadU32(&got_tag) || !r.ReadU64(&len)) return Truncated();
  if (got_tag != tag) {
    return Status::IoError(
        StrFormat("model file section tag %u where %u was expected", got_tag,
                  tag));
  }
  if (len > r.remaining()) return Truncated();
  if (!r.ReadView(static_cast<std::size_t>(len), payload)) return Truncated();
  std::uint32_t crc;
  if (!r.ReadU32(&crc)) return Truncated();
  if (crc != Crc32(payload->data(), payload->size())) {
    return Status::IoError("model file section failed its CRC32 check");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Per-kind payloads.
// ---------------------------------------------------------------------------

std::string SerializeAnchor(const mvsc::AnchorModel& model) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, ModelSerializer::kFormatVersion);
  PutU32(&out, kKindAnchor);
  {
    std::string meta;
    PutU64(&meta, model.anchor_neighbors);
    PutU64(&meta, model.num_clusters);
    PutU64(&meta, model.views.size());
    AppendSection(&out, kTagMeta, meta);
  }
  for (const mvsc::AnchorViewModel& view : model.views) {
    std::string payload;
    PutVector(&payload, view.feature_means);
    PutVector(&payload, view.feature_inv_stds);
    PutMatrix(&payload, view.anchors);
    PutMatrix(&payload, view.anchor_map);
    AppendSection(&out, kTagView, payload);
  }
  {
    std::string payload;
    PutMatrix(&payload, model.mix);
    PutMatrix(&payload, model.assignment);
    AppendSection(&out, kTagModel, payload);
  }
  return out;
}

StatusOr<mvsc::OutOfSampleModel> DeserializeAnchor(Reader& r) {
  mvsc::AnchorModel model;
  std::string_view payload;
  UMVSC_RETURN_IF_ERROR(ReadSection(r, kTagMeta, &payload));
  std::uint64_t neighbors, clusters, num_views;
  {
    Reader meta(payload);
    if (!meta.ReadU64(&neighbors) || !meta.ReadU64(&clusters) ||
        !meta.ReadU64(&num_views)) {
      return Truncated();
    }
  }
  model.anchor_neighbors = static_cast<std::size_t>(neighbors);
  model.num_clusters = static_cast<std::size_t>(clusters);
  for (std::uint64_t v = 0; v < num_views; ++v) {
    UMVSC_RETURN_IF_ERROR(ReadSection(r, kTagView, &payload));
    Reader vr(payload);
    mvsc::AnchorViewModel view;
    if (!vr.ReadVector(&view.feature_means) ||
        !vr.ReadVector(&view.feature_inv_stds) ||
        !vr.ReadMatrix(&view.anchors) || !vr.ReadMatrix(&view.anchor_map)) {
      return Truncated();
    }
    model.views.push_back(std::move(view));
  }
  UMVSC_RETURN_IF_ERROR(ReadSection(r, kTagModel, &payload));
  {
    Reader mr(payload);
    if (!mr.ReadMatrix(&model.mix) || !mr.ReadMatrix(&model.assignment)) {
      return Truncated();
    }
  }
  if (r.remaining() != 0) {
    return Status::IoError("model file has trailing bytes");
  }
  // FitAnchor re-runs the full validation (shapes and finiteness) and
  // rebuilds the derived anchor panels, so a loaded model is exactly a
  // fitted one.
  return mvsc::OutOfSampleModel::FitAnchor(std::move(model));
}

}  // namespace

struct ModelSerializer::ExactCodec {
  static std::string Serialize(const mvsc::OutOfSampleModel& model);
  static StatusOr<mvsc::OutOfSampleModel> Deserialize(Reader& r);
};

std::string ModelSerializer::ExactCodec::Serialize(
    const mvsc::OutOfSampleModel& model) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, ModelSerializer::kFormatVersion);
  PutU32(&out, kKindExact);
  {
    std::string meta;
    PutU64(&meta, model.options_.knn);
    PutU64(&meta, model.num_clusters_);
    PutU64(&meta, model.views_.size());
    AppendSection(&out, kTagMeta, meta);
  }
  for (std::size_t v = 0; v < model.views_.size(); ++v) {
    std::string payload;
    PutVector(&payload, model.feature_means_[v]);
    PutVector(&payload, model.feature_inv_stds_[v]);
    PutVector(&payload, model.train_scales_[v]);
    PutMatrix(&payload, model.views_[v]);
    AppendSection(&out, kTagView, payload);
  }
  {
    std::string payload;
    PutU64(&payload, model.labels_.size());
    for (std::size_t label : model.labels_) PutU64(&payload, label);
    PutU64(&payload, model.view_weights_.size());
    PutDoubles(&payload, model.view_weights_.data(),
               model.view_weights_.size());
    AppendSection(&out, kTagModel, payload);
  }
  return out;
}

StatusOr<mvsc::OutOfSampleModel> ModelSerializer::ExactCodec::Deserialize(
    Reader& r) {
  mvsc::OutOfSampleModel model;
  std::string_view payload;
  UMVSC_RETURN_IF_ERROR(ReadSection(r, kTagMeta, &payload));
  std::uint64_t knn, clusters, num_views;
  {
    Reader meta(payload);
    if (!meta.ReadU64(&knn) || !meta.ReadU64(&clusters) ||
        !meta.ReadU64(&num_views)) {
      return Truncated();
    }
  }
  model.options_.knn = static_cast<std::size_t>(knn);
  model.num_clusters_ = static_cast<std::size_t>(clusters);
  for (std::uint64_t v = 0; v < num_views; ++v) {
    UMVSC_RETURN_IF_ERROR(ReadSection(r, kTagView, &payload));
    Reader vr(payload);
    la::Vector means, inv_stds, scales;
    la::Matrix train;
    if (!vr.ReadVector(&means) || !vr.ReadVector(&inv_stds) ||
        !vr.ReadVector(&scales) || !vr.ReadMatrix(&train)) {
      return Truncated();
    }
    model.feature_means_.push_back(std::move(means));
    model.feature_inv_stds_.push_back(std::move(inv_stds));
    model.train_scales_.push_back(std::move(scales));
    model.views_.push_back(std::move(train));
  }
  UMVSC_RETURN_IF_ERROR(ReadSection(r, kTagModel, &payload));
  {
    Reader mr(payload);
    std::uint64_t num_labels;
    if (!mr.ReadU64(&num_labels)) return Truncated();
    if (num_labels > mr.remaining() / sizeof(std::uint64_t)) {
      return Truncated();
    }
    model.labels_.resize(static_cast<std::size_t>(num_labels));
    for (std::size_t i = 0; i < model.labels_.size(); ++i) {
      std::uint64_t label;
      if (!mr.ReadU64(&label)) return Truncated();
      model.labels_[i] = static_cast<std::size_t>(label);
    }
    std::uint64_t num_weights;
    if (!mr.ReadU64(&num_weights)) return Truncated();
    if (num_weights > mr.remaining() / sizeof(double)) return Truncated();
    model.view_weights_.resize(static_cast<std::size_t>(num_weights));
    if (!mr.ReadDoubles(model.view_weights_.data(),
                        model.view_weights_.size())) {
      return Truncated();
    }
  }
  if (r.remaining() != 0) {
    return Status::IoError("model file has trailing bytes");
  }

  // Structural validation — the invariants Fit establishes.
  const std::size_t v_count = model.views_.size();
  if (v_count == 0) {
    return Status::InvalidArgument("exact model has no views");
  }
  if (model.view_weights_.size() != v_count) {
    return Status::InvalidArgument(
        "exact model must carry one view weight per view");
  }
  const std::size_t n = model.views_.front().rows();
  if (n == 0 || model.labels_.size() != n) {
    return Status::InvalidArgument(
        "exact model labels must match the training row count");
  }
  if (model.num_clusters_ < 1) {
    return Status::InvalidArgument("exact model needs at least one cluster");
  }
  for (std::size_t label : model.labels_) {
    if (label >= model.num_clusters_) {
      return Status::InvalidArgument("exact model label out of range");
    }
  }
  if (model.options_.knn < 1 || model.options_.knn >= n) {
    return Status::InvalidArgument(
        "exact model knn must satisfy 1 <= k < n");
  }
  for (std::size_t v = 0; v < v_count; ++v) {
    const std::size_t d = model.views_[v].cols();
    if (model.views_[v].rows() != n || d == 0 ||
        model.feature_means_[v].size() != d ||
        model.feature_inv_stds_[v].size() != d ||
        model.train_scales_[v].size() != n) {
      return Status::InvalidArgument(
          StrFormat("exact model view %zu has inconsistent shapes", v));
    }
    if (!std::isfinite(model.view_weights_[v]) ||
        model.view_weights_[v] < 0.0) {
      return Status::InvalidArgument(
          "exact model view weights must be finite and nonnegative");
    }
  }
  return model;
}

std::string ModelSerializer::Serialize(const mvsc::OutOfSampleModel& model) {
  if (model.anchor_model()) return SerializeAnchor(*model.anchor_model());
  return ExactCodec::Serialize(model);
}

StatusOr<mvsc::OutOfSampleModel> ModelSerializer::Deserialize(
    std::string_view bytes) {
  Reader r(bytes);
  char magic[sizeof(kMagic)];
  if (!r.ReadBytes(magic, sizeof(kMagic))) return Truncated();
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("not a umvsc model file (bad magic)");
  }
  std::uint32_t version, kind;
  if (!r.ReadU32(&version) || !r.ReadU32(&kind)) return Truncated();
  if (version > kFormatVersion) {
    return Status::FailedPrecondition(
        StrFormat("model file version %u is newer than the supported %u",
                  version, kFormatVersion));
  }
  if (kind == kKindAnchor) return DeserializeAnchor(r);
  if (kind == kKindExact) return ExactCodec::Deserialize(r);
  return Status::IoError(StrFormat("unknown model kind %u", kind));
}

Status ModelSerializer::Save(const mvsc::OutOfSampleModel& model,
                             const std::string& path) {
  const std::string bytes = Serialize(model);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError(StrFormat("cannot open %s for writing", tmp.c_str()));
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::IoError(StrFormat("short write to %s", tmp.c_str()));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError(StrFormat("cannot rename %s into place", tmp.c_str()));
  }
  return Status::OK();
}

StatusOr<mvsc::OutOfSampleModel> ModelSerializer::Load(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(StrFormat("cannot open model file %s", path.c_str()));
  }
  std::string bytes;
  char buffer[1 << 16];
  std::size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.append(buffer, got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IoError(StrFormat("error reading model file %s", path.c_str()));
  }
  return Deserialize(bytes);
}

}  // namespace umvsc::serve
