// Flat binary (de)serialization of model parameters.
//
// Format v2, little-endian (util/bytes): magic "RDC2", u64 param count,
// then per param a u64 element count followed by float32 data, then a
// trailing u32 CRC-32 (util::crc32) over every byte after the magic.
// Shapes/names are not stored — loading validates element counts against
// the constructed model, which is rebuilt from its config (the configs are
// code) — and the checksum rejects bit-flipped files that size checks alone
// would load silently. v1 "RDCN" files (no checksum) are rejected by magic.
// Benchmarks use this to cache trained models across binaries.
#pragma once

#include <string>

#include "capsnet/model.hpp"

namespace redcane::capsnet {

/// Exact checkpoint size: 16 bytes, plus 8 per tensor, plus 4 per float.
[[nodiscard]] std::uint64_t checkpoint_bytes(const ParamLayout& layout);

/// Writes all parameters of `model`. Returns false on I/O failure.
bool save_params(CapsModel& model, const std::string& path);

/// Loads parameters into `model`. Returns false when the file is missing,
/// malformed, checksum-corrupt, or its layout does not match the model.
/// Staged: the file (capped at the layout's size) passes every check before
/// any parameter is written, so on false the model's parameters are unchanged.
bool load_params(CapsModel& model, const std::string& path);

}  // namespace redcane::capsnet
