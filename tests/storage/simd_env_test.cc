// HCACHE_SIMD picks the codec's starting tier: unset keeps the detected tier,
// `scalar` forces the reference kernels, and any other value warns "not recognized"
// and keeps the detected tier. ctest runs this binary under the caller's environment
// (the forced-scalar CI leg sets `scalar`) and twice more, with HCACHE_SIMD=f16c and
// HCACHE_SIMD=avx512, the names of retired tiers, which must fall back to the
// detected tier rather than fail or drop to scalar.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <string>

#include "src/storage/codec_simd.h"

namespace hcache {
namespace {

TEST(SimdEnvTest, ActiveTierFollowsHcacheSimd) {
  const char* env = std::getenv("HCACHE_SIMD");
  std::string value = env == nullptr ? "" : env;
  for (char& c : value) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  const SimdTier detected = DetectedSimdTier();
  SimdTier want = detected;
  bool recognized = value.empty();
  if (value == "scalar") {
    want = SimdTier::kScalar;
    recognized = true;
  }

  // The first ActiveSimdTier() call reads HCACHE_SIMD and logs any warning.
  testing::internal::CaptureStderr();
  const SimdTier active = ActiveSimdTier();
  const std::string log = testing::internal::GetCapturedStderr();

  EXPECT_EQ(want, active) << "HCACHE_SIMD='" << value << "' detected="
                          << SimdTierName(detected) << " active=" << SimdTierName(active);
  if (!recognized) {
    EXPECT_NE(std::string::npos, log.find("not recognized")) << log;
  }
}

}  // namespace
}  // namespace hcache
