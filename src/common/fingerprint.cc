#include "src/common/fingerprint.h"

#include <bit>
#include <cstring>

namespace dime {
namespace {

// The xxHash64 primes.
constexpr uint64_t kP1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kP3 = 0x165667b19e3779f9ULL;
constexpr uint64_t kP4 = 0x85ebca77c2b2ae63ULL;
constexpr uint64_t kP5 = 0x27d4eb2f165667c5ULL;

/// Final mix: every input bit affects every output bit.
uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace

void ContentHasher::Mix(uint64_t word) {
  a_ = std::rotl(a_ + word * kP2, 31) * kP1;
  b_ = std::rotl(b_ ^ (word * kP4), 27) * kP3;
  ++words_;
}

ContentHasher& ContentHasher::Field(std::string_view bytes) {
  Mix(bytes.size());
  const char* p = bytes.data();
  size_t left = bytes.size();
  for (; left >= 8; p += 8, left -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    Mix(word);
  }
  if (left > 0) {
    // Zero padding is unambiguous: the length came first.
    uint64_t word = 0;
    std::memcpy(&word, p, left);
    Mix(word);
  }
  return *this;
}

Fingerprint ContentHasher::Finish() const {
  return Fingerprint{Avalanche(a_ + words_ * kP5),
                     Avalanche(b_ ^ std::rotl(a_, 29))};
}

Fingerprint FingerprintBytes(std::string_view bytes) {
  return ContentHasher().Field(bytes).Finish();
}

}  // namespace dime
