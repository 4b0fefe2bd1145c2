#include "src/sim/edit_distance.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/check.h"
#include "src/sim/similarity.h"

namespace dime {
namespace {

// ---------------------------------------------------------------------------
// Myers bit-parallel Levenshtein (single-word, blocked, banded).
//
// Word layout: the PATTERN (always the shorter string) runs down the bit
// positions — bit r of a word is pattern row r of that 64-row block, so
// bit 0 is the topmost row and carries propagate downward through the
// matrix as the addition in the D0 computation ripples toward the MSB.
// The TEXT advances one column per iteration. VP/VN hold the vertical
// deltas of the current column (+1 / -1 per row), HP/HN the horizontal
// deltas, and the scalar `score` tracks the DP value at a fixed sampling
// row, updated from the horizontal delta bit at that row each column.
//
// Distances are integers, so as long as each variant computes the exact
// DP recurrence its result — and every threshold decision derived from it
// — is bit-identical to the classic DP's.
// ---------------------------------------------------------------------------

/// Per-thread scratch. `peq` is the pattern-match bit table (256 chars x
/// `blocks` words) and is kept ALL-ZERO between calls: each call sets the
/// bits of its pattern and clears exactly those words again before
/// returning, so the cost per call is O(|pattern|) instead of a 2KB-per-
/// block memset.
struct MyersScratch {
  std::vector<uint64_t> peq;
  std::vector<uint64_t> vp;
  std::vector<uint64_t> vn;
  std::vector<size_t> bottom;  ///< per-block DP value at the block's last row

  void EnsureBlocks(size_t blocks) {
    if (peq.size() < blocks * 256) peq.resize(blocks * 256, 0);
    if (vp.size() < blocks) {
      vp.resize(blocks);
      vn.resize(blocks);
      bottom.resize(blocks);
    }
  }
};

MyersScratch& Scratch() {
  thread_local MyersScratch scratch;
  return scratch;
}

void FillPeq(std::string_view pattern, size_t blocks, uint64_t* peq) {
  for (size_t i = 0; i < pattern.size(); ++i) {
    peq[static_cast<unsigned char>(pattern[i]) * blocks + (i >> 6)] |=
        uint64_t{1} << (i & 63);
  }
}

void ClearPeq(std::string_view pattern, size_t blocks, uint64_t* peq) {
  // Every bit set by FillPeq came from some position i; zeroing that
  // position's word again restores the all-zero invariant.
  for (size_t i = 0; i < pattern.size(); ++i) {
    peq[static_cast<unsigned char>(pattern[i]) * blocks + (i >> 6)] = 0;
  }
}

/// Advances one 64-row block by one text column. `eq` is the block's
/// pattern-match word for the column's character; `hin` in {-1, 0, +1} is
/// the horizontal delta entering the block's top row. Returns the
/// horizontal delta leaving the bottom row; `*hp_out` / `*hn_out` receive
/// the unshifted horizontal delta vectors so callers can sample the score
/// at an interior row.
inline int AdvanceBlock(uint64_t eq, int hin, uint64_t* vp_io, uint64_t* vn_io,
                        uint64_t* hp_out, uint64_t* hn_out) {
  uint64_t vp = *vp_io;
  uint64_t vn = *vn_io;
  const uint64_t hin_neg = hin < 0 ? 1u : 0u;
  const uint64_t eq_h = eq | hin_neg;  // a -1 carry acts like a row-0 match
  const uint64_t xv = eq | vn;
  const uint64_t xh = (((eq_h & vp) + vp) ^ vp) | eq_h;
  uint64_t hp = vn | ~(xh | vp);
  uint64_t hn = vp & xh;
  *hp_out = hp;
  *hn_out = hn;
  const int hout = (hp >> 63) ? 1 : (hn >> 63) ? -1 : 0;
  hp = (hp << 1) | (hin > 0 ? 1u : 0u);
  hn = (hn << 1) | hin_neg;
  *vp_io = hn | ~(xv | hp);
  *vn_io = hp & xv;
  return hout;
}

/// Single-word core: pattern `a` (1..64 chars) against text `b`, abandoning
/// once the distance provably exceeds `k`. Returns the exact distance if
/// <= k, else k + 1. Pass k >= |b| for the unbounded exact distance.
size_t MyersSingleWordCore(std::string_view a, std::string_view b, size_t k) {
  const size_t m = a.size();
  const size_t n = b.size();
  MyersScratch& scratch = Scratch();
  scratch.EnsureBlocks(1);
  uint64_t* peq = scratch.peq.data();
  FillPeq(a, 1, peq);

  uint64_t vp = ~uint64_t{0};
  uint64_t vn = 0;
  size_t score = m;  // D[m][0]
  const uint64_t sample = uint64_t{1} << (m - 1);
  size_t result = k + 1;
  for (size_t j = 0; j < n; ++j) {
    uint64_t hp, hn;
    AdvanceBlock(peq[static_cast<unsigned char>(b[j])], /*hin=*/1, &vp, &vn,
                 &hp, &hn);
    if (hp & sample) {
      ++score;
    } else if (hn & sample) {
      --score;
    }
    // Each remaining column can lower the bottom-row value by at most 1,
    // so `score - remaining` bounds the final distance from below.
    if (score > k + (n - 1 - j)) {
      ClearPeq(a, 1, peq);
      return result;
    }
  }
  result = score <= k ? score : k + 1;
  ClearPeq(a, 1, peq);
  return result;
}

/// Blocked core: pattern `a` (any length) against text `b` with block-level
/// banding. Only blocks intersecting the |i - j| <= k band advance each
/// column: blocks entirely above the band are dropped (their influence
/// enters as a +1 carry, an overestimate of cells that cannot lie on any
/// <= k path), blocks below it are activated lazily with all-+1 vertical
/// deltas (again an overestimate of irrelevant cells). Overestimating
/// out-of-band cells is exactly what the banded DP's +inf does, so in-band
/// values — and the returned distance whenever it is <= k — stay exact.
/// Returns the exact distance if <= k, else k + 1. Pass k >= |b| for the
/// unbounded exact distance (the band then covers every block).
size_t MyersBlockedCore(std::string_view a, std::string_view b, size_t k) {
  const size_t m = a.size();
  const size_t n = b.size();
  const size_t num_blocks = (m + 63) >> 6;
  MyersScratch& scratch = Scratch();
  scratch.EnsureBlocks(num_blocks);
  uint64_t* peq = scratch.peq.data();
  uint64_t* vp = scratch.vp.data();
  uint64_t* vn = scratch.vn.data();
  size_t* bottom = scratch.bottom.data();
  FillPeq(a, num_blocks, peq);

  // Active block range [first, last]; rows below `last`'s bottom have not
  // been touched yet and rows above `first`'s top are out of band.
  size_t first = 0;
  size_t last = std::min(num_blocks - 1, k >> 6);
  for (size_t blk = 0; blk <= last; ++blk) {
    vp[blk] = ~uint64_t{0};
    vn[blk] = 0;
    bottom[blk] = (blk + 1) << 6;  // column 0: D[i][0] = i
  }

  size_t result = k + 1;
  bool abandoned = false;
  for (size_t j = 0; j < n; ++j) {
    // Grow the bottom of the band: rows r <= j + k are reachable.
    const size_t want_last = std::min(num_blocks - 1, (j + k) >> 6);
    while (last < want_last) {
      ++last;
      vp[last] = ~uint64_t{0};
      vn[last] = 0;
      bottom[last] = bottom[last - 1] + 64;
    }
    // Shrink the top: a block whose bottom row has prefix length
    // 64*(blk+1) < (j+1) - k lies entirely above the band.
    while (first < last && j + 1 > k && ((first + 1) << 6) < j + 1 - k) {
      ++first;
    }
    const size_t c = static_cast<unsigned char>(b[j]) * num_blocks;
    int hin = 1;  // row-0 boundary (or the +1 overestimate at a dropped top)
    uint64_t hp, hn;
    for (size_t blk = first; blk <= last; ++blk) {
      hin = AdvanceBlock(peq[c + blk], hin, &vp[blk], &vn[blk], &hp, &hn);
      bottom[blk] += static_cast<size_t>(hin);
    }
    // Column-min abandon: every path crosses every column inside the band,
    // and each in-band value is at least its block's bottom value minus 63.
    bool all_exceed = true;
    for (size_t blk = first; blk <= last; ++blk) {
      if (bottom[blk] <= k + 63) {
        all_exceed = false;
        break;
      }
    }
    if (all_exceed) {
      abandoned = true;
      break;
    }
    // Remaining-columns abandon at the last block's bottom row.
    const size_t bottom_row = ((last + 1) << 6) - 1;
    const size_t row_gap =
        bottom_row >= m - 1 ? bottom_row - (m - 1) : (m - 1) - bottom_row;
    if (bottom[last] > k + (n - 1 - j) + row_gap) {
      abandoned = true;
      break;
    }
  }
  if (!abandoned) {
    // The answer sits at pattern row m - 1 of the final block; walk the
    // vertical deltas up from the block's (possibly padded) bottom row.
    DIME_DCHECK_EQ(last, num_blocks - 1);
    const size_t r = (m - 1) & 63;
    size_t value = bottom[last];
    if (r != 63) {
      const uint64_t above = ~uint64_t{0} << (r + 1);
      value -= static_cast<size_t>(__builtin_popcountll(vp[last] & above));
      value += static_cast<size_t>(__builtin_popcountll(vn[last] & above));
    }
    result = value <= k ? value : k + 1;
  }
  ClearPeq(a, num_blocks, peq);
  return result;
}

/// Shared entry: orders the inputs (pattern = shorter), handles empties and
/// the length gap, clamps the threshold, and picks the word layout.
size_t MyersWithin(std::string_view a, std::string_view b, size_t max_dist) {
  if (a.size() > b.size()) std::swap(a, b);
  if (b.size() - a.size() > max_dist) return max_dist + 1;
  if (a.empty()) return b.size();  // <= max_dist by the gap check
  // The distance never exceeds |b|, so a larger threshold cannot change
  // the result; clamping keeps the band arithmetic overflow-free.
  const size_t k = std::min(max_dist, b.size());
  const size_t d = a.size() <= 64 ? MyersSingleWordCore(a, b, k)
                                  : MyersBlockedCore(a, b, k);
  return d <= max_dist ? d : max_dist + 1;
}

}  // namespace

namespace internal {

size_t EditDistanceDP(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);  // a is the shorter string
  std::vector<size_t> prev(a.size() + 1), cur(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) prev[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    cur[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({sub, prev[i] + 1, cur[i - 1] + 1});
    }
    std::swap(prev, cur);
  }
  return prev[a.size()];
}

size_t EditDistanceWithinDP(std::string_view a, std::string_view b,
                            size_t max_dist) {
  if (a.size() > b.size()) std::swap(a, b);
  if (b.size() - a.size() > max_dist) return max_dist + 1;
  const size_t kInf = std::numeric_limits<size_t>::max() / 2;
  // Band half-width: cells with |i - j| > max_dist can never contribute.
  std::vector<size_t> prev(a.size() + 1, kInf), cur(a.size() + 1, kInf);
  for (size_t i = 0; i <= std::min(a.size(), max_dist); ++i) prev[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    size_t lo = j > max_dist ? j - max_dist : 0;
    size_t hi = std::min(a.size(), j + max_dist);
    if (lo > hi) return max_dist + 1;
    std::fill(cur.begin(), cur.end(), kInf);
    if (lo == 0) cur[0] = j;
    size_t row_min = kInf;
    if (lo == 0) row_min = cur[0];
    for (size_t i = std::max<size_t>(lo, 1); i <= hi; ++i) {
      size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      size_t del = prev[i] + 1;
      size_t ins = cur[i - 1] + 1;
      cur[i] = std::min({sub, del, ins});
      row_min = std::min(row_min, cur[i]);
    }
    if (row_min > max_dist) return max_dist + 1;
    std::swap(prev, cur);
  }
  size_t result = prev[a.size()];
  return result <= max_dist ? result : max_dist + 1;
}

size_t MyersDistanceSingleWord(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  DIME_CHECK_LE(a.size(), 64u);
  if (a.empty()) return b.size();
  return MyersSingleWordCore(a, b, /*k=*/b.size());
}

size_t MyersDistanceBlocked(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return b.size();
  return MyersBlockedCore(a, b, /*k=*/b.size());
}

size_t MyersDistanceBanded(std::string_view a, std::string_view b,
                           size_t max_dist) {
  return MyersWithin(a, b, max_dist);
}

}  // namespace internal

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return b.size();
  return a.size() <= 64 ? MyersSingleWordCore(a, b, /*k=*/b.size())
                        : MyersBlockedCore(a, b, /*k=*/b.size());
}

size_t EditDistanceWithin(std::string_view a, std::string_view b,
                          size_t max_dist) {
  return MyersWithin(a, b, max_dist);
}

double EditSimilarity(std::string_view a, std::string_view b) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  size_t ed = EditDistance(a, b);
  return 1.0 - static_cast<double>(ed) / static_cast<double>(max_len);
}

bool EditSimilarityAtLeast(std::string_view a, std::string_view b,
                           double tau) {
  const size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0 >= tau - kSimCompareEps;  // sim is exactly 1.0
  // The check holds iff ed <= d1, where d1 is the largest distance with
  // 1 - d1/max_len >= tau - eps. Derive d1 in closed form, then nudge it
  // with the EXACT comparison Predicate::Compare applies, as
  // EditSimilarityAtMost does.
  const double len = static_cast<double>(max_len);
  auto holds_at = [&](size_t ed) {
    return 1.0 - static_cast<double>(ed) / len >= tau - kSimCompareEps;
  };
  const double guess = std::floor((1.0 - tau) * len);
  size_t d1 = guess <= 0.0   ? 0
              : guess >= len ? max_len
                             : static_cast<size_t>(guess);
  while (d1 < max_len && holds_at(d1 + 1)) ++d1;
  while (d1 > 0 && !holds_at(d1)) --d1;
  if (!holds_at(d1)) return false;  // not even equal strings qualify
  if (d1 == max_len) return true;   // every distance qualifies
  return EditDistanceWithin(a, b, d1) <= d1;
}

bool EditSimilarityAtMost(std::string_view a, std::string_view b,
                          double sigma) {
  const size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0 <= sigma + kSimCompareEps;  // sim is exactly 1.0
  // The check holds iff ed >= d0, where d0 is the smallest integer with
  // 1 - d0/max_len <= sigma + eps. Derive d0 in closed form, then nudge it
  // with the EXACT comparison Predicate::Compare applies, so the decision
  // is bit-identical to comparing the exact similarity.
  const double len = static_cast<double>(max_len);
  auto holds_at = [&](size_t ed) {
    return 1.0 - static_cast<double>(ed) / len <= sigma + kSimCompareEps;
  };
  double guess = std::ceil((1.0 - sigma) * len) - 1.0;
  size_t d0 = guess <= 0.0 ? 0 : static_cast<size_t>(guess);
  while (d0 > 0 && holds_at(d0 - 1)) --d0;
  while (d0 <= max_len && !holds_at(d0)) ++d0;
  if (d0 == 0) return true;           // every distance qualifies
  if (d0 > max_len) return false;     // no achievable distance qualifies
  // ed >= d0  <=>  the banded check at d0 - 1 overflows its threshold.
  return EditDistanceWithin(a, b, d0 - 1) == d0;
}

size_t MaxEditDistanceForSim(size_t len, double tau) {
  if (tau <= 0.0) return std::numeric_limits<size_t>::max() / 4;
  double bound = (1.0 - tau) * static_cast<double>(len) / tau;
  return static_cast<size_t>(std::floor(bound + 1e-9));
}

}  // namespace dime
