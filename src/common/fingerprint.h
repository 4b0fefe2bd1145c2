#ifndef DIME_COMMON_FINGERPRINT_H_
#define DIME_COMMON_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

/// \file fingerprint.h
/// 128-bit content fingerprints: the identity of a byte string, a group
/// or a rule context, used as result-cache keys and as the synthesized
/// fingerprint of corpus epochs that were not loaded from a snapshot.
///
/// ContentHasher consumes input eight bytes at a time through two
/// independent lanes (differently seeded, different multipliers, both
/// rotate-multiply rounds in the style of xxHash64) and avalanches each
/// lane at the end. Callers feed structured data as a sequence of
/// length-prefixed fields and plain words, so the encoding is injective:
/// ("ab", "c") and ("a", "bc") are different inputs, and so are one
/// field "a|b" and two fields "a", "b".
///
/// Words are loaded in host byte order, so a fingerprint is stable across
/// runs and machines of one byte order but differs between little- and
/// big-endian hosts. None is written to disk; snapshots carry their own
/// byte-serial fingerprint (SnapshotFingerprint in store/snapshot_format.h).

namespace dime {

/// 128 bits of content hash.
struct Fingerprint {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const Fingerprint& other) const {
    return lo == other.lo && hi == other.hi;
  }
  bool operator!=(const Fingerprint& other) const { return !(*this == other); }
};

struct FingerprintHash {
  size_t operator()(const Fingerprint& fp) const {
    // lo is already a mixed 64-bit hash; fold hi in for map dispersion.
    return static_cast<size_t>(fp.lo ^ (fp.hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// Streaming 128-bit hash over a sequence of fields and words.
class ContentHasher {
 public:
  /// Appends `bytes` preceded by its length.
  ContentHasher& Field(std::string_view bytes);
  /// Appends one 64-bit word.
  ContentHasher& Word(uint64_t word) {
    Mix(word);
    return *this;
  }
  /// Appends both halves of a fingerprint.
  ContentHasher& Key(const Fingerprint& fp) { return Word(fp.lo).Word(fp.hi); }

  /// The fingerprint of everything appended so far.
  Fingerprint Finish() const;

 private:
  void Mix(uint64_t word);

  uint64_t a_ = 0x243f6a8885a308d3ULL;  // digits of pi
  uint64_t b_ = 0x13198a2e03707344ULL;
  uint64_t words_ = 0;
};

/// Fingerprints one byte string (a single length-prefixed field).
Fingerprint FingerprintBytes(std::string_view bytes);

}  // namespace dime

#endif  // DIME_COMMON_FINGERPRINT_H_
