// te::io corruption fuzzing: every malformed byte must yield a precise
// IoError (with container + offset context) -- never garbage data, an
// abort, or undefined behavior. The CI sanitizer legs run this binary under
// ASan/UBSan, so any out-of-bounds decode or misaligned read trips there.
//
// Strategy: build one small valid container, then exhaustively (a) flip
// every single byte and (b) truncate at every prefix length, re-walking the
// result each time. Separately, craft sections whose FRAMING is valid but
// whose payloads lie (counts, sizes, ranges): the object decoders must
// reject those with bounds errors too.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "te/io/checkpoint.hpp"
#include "te/io/container.hpp"
#include "te/tensor/generators.hpp"
#include "te/util/rng.hpp"
#include "temp_path.hpp"

namespace te::io {
namespace {

using test::unique_temp_path;
using test::TmpFile;

std::vector<std::byte> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> out(raw.size());
  std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

/// A small but representative container: two sections, real payloads.
std::vector<std::byte> make_valid_image(const std::string& path) {
  CounterRng rng(1);
  std::vector<SymmetricTensor<float>> tensors;
  for (int i = 0; i < 2; ++i) {
    tensors.push_back(random_symmetric_tensor<float>(
        rng, static_cast<std::uint64_t>(i), 3, 3));
  }
  Writer w(path);
  add_tensor_batch_section(
      w, std::span<const SymmetricTensor<float>>(tensors));
  PayloadBuilder b;
  b.put_u64(0x0123456789ABCDEFull);
  w.add_section(SectionType::kChunkResult, 1, b.bytes());
  w.flush();
  return slurp(path);
}

/// Full strict walk over an in-memory image; returns the section count.
int strict_walk(std::span<const std::byte> image) {
  SectionWalker walker(image, "image");
  int n = 0;
  while (walker.next()) ++n;
  return n;
}

TEST(IoCorruption, ValidImageWalksCleanly) {
  TmpFile f("valid.tetc");
  const auto image = make_valid_image(f.path);
  EXPECT_EQ(strict_walk(image), 2);
}

TEST(IoCorruption, EveryFlippedByteIsDetected) {
  TmpFile f("flip.tetc");
  const auto image = make_valid_image(f.path);
  for (std::size_t i = 0; i < image.size(); ++i) {
    auto mutated = image;
    mutated[i] ^= std::byte{0x01};
    EXPECT_THROW((void)strict_walk(mutated), InvalidArgument)
        << "flip at byte " << i << " went undetected";
  }
}

TEST(IoCorruption, EveryTruncationIsSafe) {
  TmpFile f("trunc.tetc");
  const auto image = make_valid_image(f.path);
  const int full = strict_walk(image);
  for (std::size_t len = 0; len < image.size(); ++len) {
    const std::span<const std::byte> prefix(image.data(), len);
    // Strict mode: throws a precise error or cleanly yields fewer
    // sections (when the cut lands exactly on a section boundary).
    try {
      EXPECT_LT(strict_walk(prefix), full) << "length " << len;
    } catch (const InvalidArgument&) {
      // expected for mid-section cuts
    }
    // Tolerant (write-ahead-log) mode must never throw past construction:
    // a torn tail is simply the end of the log.
    if (len >= kFileHeaderBytes) {
      SectionWalker tolerant(prefix, "image", /*tolerate_torn_tail=*/true);
      int n = 0;
      while (tolerant.next()) ++n;
      EXPECT_LT(n, full) << "length " << len;
    }
  }
}

TEST(IoCorruption, OversizedPayloadLengthIsAPreciseError) {
  // A payload length near 2^64 with a valid header CRC: the bound check
  // must reject it before any slice or buffer is sized from it, and the
  // sum payload_offset + payload_bytes must not wrap past the check.
  TmpFile f("huge.tetc");
  auto image = make_valid_image(f.path);
  const std::size_t h = static_cast<std::size_t>(align_up(kFileHeaderBytes));
  for (const std::uint64_t lie :
       {~std::uint64_t{0} - 15, std::uint64_t{1} << 62}) {
    std::memcpy(image.data() + h + 16, &lie, sizeof lie);
    const std::uint32_t crc =
        crc32(std::span<const std::byte>(image.data() + h, 28));
    std::memcpy(image.data() + h + 28, &crc, sizeof crc);
    EXPECT_THROW((void)strict_walk(image), IoError) << lie;
    {
      std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(image.data()),
                static_cast<std::streamsize>(image.size()));
    }
    StreamReader reader(f.path);
    EXPECT_THROW((void)reader.next(), IoError) << lie;
  }
}

TEST(IoCorruption, WrongMagicAndShortFilesAreRejected) {
  TmpFile f("magic.tetc");
  auto image = make_valid_image(f.path);
  image[0] ^= std::byte{0xFF};
  EXPECT_THROW((void)strict_walk(image), InvalidArgument);
  // Tolerant mode still requires a valid FILE header -- tolerance only
  // applies to the section tail.
  EXPECT_THROW(SectionWalker(image, "image", true), InvalidArgument);
  // Zero-length and sub-header files.
  EXPECT_THROW((void)strict_walk({}), InvalidArgument);
  EXPECT_THROW(
      (void)strict_walk(std::span<const std::byte>(image.data(), 7)),
      InvalidArgument);

  std::ofstream(f.path, std::ios::binary) << "TESYMB01 legacy, not TETC";
  EXPECT_THROW(StreamReader{f.path}, InvalidArgument);
  EXPECT_THROW(MappedFile{f.path}, InvalidArgument);
}

// ---------------------------------------------------------------------------
// Valid framing, lying payloads: decoder bounds checks.

/// Writes one section with intact CRCs around the given payload and returns
/// the strict-read section.
SectionData reframe(const std::string& path, SectionType type,
                    std::uint32_t version, const PayloadBuilder& b) {
  {
    Writer w(path);
    w.add_section(type, version, b.bytes());
    w.flush();
  }
  return find_section(path, type);
}

TEST(IoCorruption, TensorBatchCountLiesAreBoundsErrors) {
  TmpFile f("lies.tetc");
  // Declares 1000 tensors of a (3, 3) shape but carries no values at all.
  PayloadBuilder b;
  b.put_u32(dtype_code<float>());
  b.put_i32(3);
  b.put_i32(3);
  b.put_u64(1000);
  b.put_u64(static_cast<std::uint64_t>(comb::num_unique_entries(3, 3)));
  b.align();
  const auto s = reframe(f.path, SectionType::kTensorBatch,
                         kTensorBatchVersion, b);
  EXPECT_THROW((void)read_tensor_batch<float>(s, f.path), IoError);
}

TEST(IoCorruption, TensorBatchImplausibleShapeIsRejected) {
  TmpFile f("shape.tetc");
  PayloadBuilder b;
  b.put_u32(dtype_code<float>());
  b.put_i32(-4);  // negative order
  b.put_i32(3);
  b.put_u64(1);
  b.put_u64(15);
  const auto s = reframe(f.path, SectionType::kTensorBatch,
                         kTensorBatchVersion, b);
  EXPECT_THROW((void)read_tensor_batch<float>(s, f.path), IoError);
}

TEST(IoCorruption, TensorBatchValuesPerTensorMismatchIsRejected) {
  TmpFile f("vpt.tetc");
  PayloadBuilder b;
  b.put_u32(dtype_code<float>());
  b.put_i32(3);
  b.put_i32(3);
  b.put_u64(1);
  b.put_u64(7);  // (3, 3) has 10 unique entries, not 7
  b.align();
  for (int i = 0; i < 7; ++i) b.put_scalar(1.0f);
  const auto s = reframe(f.path, SectionType::kTensorBatch,
                         kTensorBatchVersion, b);
  EXPECT_THROW((void)read_tensor_batch<float>(s, f.path), IoError);
}

TEST(IoCorruption, ChunkResultRangeAndSizeLiesAreRejected) {
  TmpFile f("chunk.tetc");
  {
    // begin > end.
    PayloadBuilder b;
    b.put_u32(dtype_code<float>());
    b.put_u32(0);   // job
    b.put_i32(5);   // begin
    b.put_i32(2);   // end < begin
    b.put_u64(0);
    const auto s = reframe(f.path, SectionType::kChunkResult,
                           kChunkResultVersion, b);
    EXPECT_THROW(
        (void)detail::decode_checkpoint_chunk<float>(s.payload, s.info,
                                                     f.path),
        IoError);
  }
  {
    // Result record with an absurd eigenvector length.
    PayloadBuilder b;
    b.put_u32(dtype_code<float>());
    b.put_u32(0);
    b.put_i32(0);
    b.put_i32(1);
    b.put_u64(1);       // one record follows...
    b.put_scalar(1.0f);  // lambda
    b.put_i32(3);        // iterations
    b.put_u32(1);        // converged
    b.put_u32(0);        // failure
    b.put_u64(1u << 30);  // x_size: absurd
    b.put_u64(0);        // trace_size
    const auto s = reframe(f.path, SectionType::kChunkResult,
                           kChunkResultVersion, b);
    EXPECT_THROW(
        (void)detail::decode_checkpoint_chunk<float>(s.payload, s.info,
                                                     f.path),
        IoError);
  }
}

TEST(IoCorruption, DatasetFiberCountLiesAreRejected) {
  TmpFile f("fibers.tetc");
  PayloadBuilder b;
  b.put_u32(dtype_code<float>());
  b.put_i32(4);
  b.put_i32(3);
  b.put_u64(1);                   // one voxel
  b.put_u64(1u << 20);            // ...claiming a million fibers
  const auto s = reframe(f.path, SectionType::kDataset, kDatasetVersion, b);
  EXPECT_THROW((void)read_dataset<float>(s, f.path), IoError);
}

TEST(IoCorruption, KernelTablesAbiMismatchIsRejected) {
  TmpFile f("abi.tetc");
  const kernels::KernelTables<float> tab(3, 3);
  save_kernel_tables(f.path, tab);
  // Reading float tables as double is a dtype error, not a misread.
  EXPECT_THROW((void)read_kernel_tables<double>(
                   find_section(f.path, SectionType::kKernelTables), f.path),
               IoError);
}

TEST(IoCorruption, FutureSectionVersionIsAPreciseError) {
  TmpFile f("ver.tetc");
  PayloadBuilder b;
  b.put_u32(dtype_code<float>());
  const auto s = reframe(f.path, SectionType::kTensorBatch,
                         kTensorBatchVersion + 41, b);
  try {
    (void)read_tensor_batch<float>(s, f.path);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(IoCorruption, CheckpointReplayIgnoresCorruptTailButKeepsPrefix) {
  TmpFile f("replay.tetc");
  CheckpointJob job;
  job.order = 4;
  job.dim = 3;
  job.num_tensors = 2;
  job.num_starts = 1;
  job.chunk_tensors = 1;
  {
    Writer w(f.path);
    add_checkpoint_job_section(w, job);
    w.flush();
  }
  const auto intact = std::filesystem::file_size(f.path);
  {
    Writer w(f.path, OpenMode::kAppend);
    add_checkpoint_job_section(w, job);
    w.flush();
  }
  // Corrupt (not truncate) the second section: flip a byte of its payload.
  {
    auto image = slurp(f.path);
    // The second section starts at the 64-aligned boundary >= intact; its
    // payload begins one section header later.
    const std::uint64_t payload = align_up(intact) + kSectionHeaderBytes;
    ASSERT_LT(payload + 4, image.size());
    image[payload + 4] ^= std::byte{0x5A};
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  }
  const auto replay = load_checkpoint<float>(f.path);
  ASSERT_TRUE(replay.present);
  EXPECT_EQ(replay.jobs.size(), 1u);  // prefix survives, tail dropped
  EXPECT_LE(replay.valid_end, intact);
}

}  // namespace
}  // namespace te::io
