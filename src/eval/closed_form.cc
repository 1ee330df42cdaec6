#include "eval/closed_form.h"

#include "util/check.h"

namespace rdfsr::eval {

SigmaCounts CovCountsFromStats(const SortStats& stats) {
  SigmaCounts out;
  out.total = stats.subjects() * stats.used_properties();
  out.favorable = stats.support_sum();
  return out;
}

SigmaCounts CovIgnoringCountsFromStats(
    const SortStats& stats, const schema::PropertySet& ignored_mask) {
  SigmaCounts out;
  BigCount favorable = stats.support_sum();
  int kept_columns = stats.used_properties();
  stats.used().ForEachIntersect(ignored_mask, [&](int p) {
    favorable -= stats.property_count(static_cast<std::size_t>(p));
    --kept_columns;
  });
  out.total = stats.subjects() * kept_columns;
  out.favorable = favorable;
  return out;
}

SigmaCounts SimCountsFromStats(const SortStats& stats) {
  SigmaCounts out;
  if (stats.empty()) return out;
  out.total = stats.support_sum() * (stats.subjects() - 1);
  out.favorable = stats.count_sq_sum() - stats.support_sum();
  return out;
}

namespace {

/// Both tracked columns must exist in the sort's view (a column no member
/// uses does not exist in the restricted matrix); otherwise no assignment can
/// satisfy prop(c1)=p1 ∧ prop(c2)=p2, total = 0 and sigma is trivially 1
/// (cf. Figure 4c's left sort).
bool StatsColumnsPresent(const SortStats& stats) {
  if (stats.pair_p1() < 0 || stats.pair_p2() < 0) return false;
  return stats.property_count(static_cast<std::size_t>(stats.pair_p1())) > 0 &&
         stats.property_count(static_cast<std::size_t>(stats.pair_p2())) > 0;
}

}  // namespace

SigmaCounts DepCountsFromStats(const SortStats& stats) {
  SigmaCounts out;
  if (!StatsColumnsPresent(stats)) return out;
  out.total = stats.property_count(static_cast<std::size_t>(stats.pair_p1()));
  out.favorable = stats.pair_both();
  return out;
}

SigmaCounts SymDepCountsFromStats(const SortStats& stats) {
  SigmaCounts out;
  if (!StatsColumnsPresent(stats)) return out;
  out.total =
      stats.property_count(static_cast<std::size_t>(stats.pair_p1())) +
      stats.property_count(static_cast<std::size_t>(stats.pair_p2())) -
      stats.pair_both();
  out.favorable = stats.pair_both();
  return out;
}

SigmaCounts DepDisjCountsFromStats(const SortStats& stats) {
  SigmaCounts out;
  if (!StatsColumnsPresent(stats)) return out;
  out.total = stats.subjects();
  out.favorable =
      stats.subjects() -
      stats.property_count(static_cast<std::size_t>(stats.pair_p1())) +
      stats.pair_both();
  return out;
}

SigmaCounts CovCountsFromMergedStats(const SortStats& a, const SortStats& b) {
  SigmaCounts out;
  out.total = (a.subjects() + b.subjects()) *
              static_cast<BigCount>(a.used().UnionCount(b.used()));
  out.favorable = a.support_sum() + b.support_sum();
  return out;
}

SigmaCounts CovIgnoringCountsFromMergedStats(
    const SortStats& a, const SortStats& b,
    const schema::PropertySet& ignored_mask) {
  SigmaCounts out;
  BigCount favorable = a.support_sum() + b.support_sum();
  BigCount kept_columns =
      static_cast<BigCount>(a.used().UnionCount(b.used()));
  ignored_mask.ForEach([&](int p) {
    const std::size_t prop = static_cast<std::size_t>(p);
    const std::int64_t cnt = a.property_count(prop) + b.property_count(prop);
    if (cnt > 0) {
      favorable -= cnt;
      --kept_columns;
    }
  });
  out.total = (a.subjects() + b.subjects()) * kept_columns;
  out.favorable = favorable;
  return out;
}

SigmaCounts SimCountsFromMergedStats(const SortStats& a, const SortStats& b) {
  SigmaCounts out;
  const BigCount subjects = a.subjects() + b.subjects();
  if (subjects == 0) return out;
  const BigCount support_sum = a.support_sum() + b.support_sum();
  BigCount cross = 0;
  a.used().ForEachIntersect(b.used(), [&](int p) {
    const std::size_t prop = static_cast<std::size_t>(p);
    cross += static_cast<BigCount>(a.property_count(prop)) *
             static_cast<BigCount>(b.property_count(prop));
  });
  out.total = support_sum * (subjects - 1);
  out.favorable =
      a.count_sq_sum() + b.count_sq_sum() + 2 * cross - support_sum;
  return out;
}

namespace {

/// StatsColumnsPresent for a candidate merge: both tracked columns must
/// exist in the union view.
bool MergedColumnsPresent(const SortStats& a, const SortStats& b) {
  RDFSR_CHECK(a.pair_p1() == b.pair_p1() && a.pair_p2() == b.pair_p2())
      << "stats track different property pairs";
  if (a.pair_p1() < 0 || a.pair_p2() < 0) return false;
  const std::size_t p1 = static_cast<std::size_t>(a.pair_p1());
  const std::size_t p2 = static_cast<std::size_t>(a.pair_p2());
  return a.property_count(p1) + b.property_count(p1) > 0 &&
         a.property_count(p2) + b.property_count(p2) > 0;
}

}  // namespace

SigmaCounts DepCountsFromMergedStats(const SortStats& a, const SortStats& b) {
  SigmaCounts out;
  if (!MergedColumnsPresent(a, b)) return out;
  const std::size_t p1 = static_cast<std::size_t>(a.pair_p1());
  out.total = a.property_count(p1) + b.property_count(p1);
  out.favorable = a.pair_both() + b.pair_both();
  return out;
}

SigmaCounts SymDepCountsFromMergedStats(const SortStats& a,
                                        const SortStats& b) {
  SigmaCounts out;
  if (!MergedColumnsPresent(a, b)) return out;
  const std::size_t p1 = static_cast<std::size_t>(a.pair_p1());
  const std::size_t p2 = static_cast<std::size_t>(a.pair_p2());
  const BigCount both = a.pair_both() + b.pair_both();
  out.total = BigCount{a.property_count(p1)} + b.property_count(p1) +
              a.property_count(p2) + b.property_count(p2) - both;
  out.favorable = both;
  return out;
}

SigmaCounts DepDisjCountsFromMergedStats(const SortStats& a,
                                         const SortStats& b) {
  SigmaCounts out;
  if (!MergedColumnsPresent(a, b)) return out;
  const std::size_t p1 = static_cast<std::size_t>(a.pair_p1());
  const BigCount subjects = a.subjects() + b.subjects();
  out.total = subjects;
  out.favorable = subjects - a.property_count(p1) - b.property_count(p1) +
                  a.pair_both() + b.pair_both();
  return out;
}

std::vector<int> AllSignatures(const schema::SignatureIndex& index) {
  std::vector<int> ids(index.num_signatures());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  return ids;
}

}  // namespace rdfsr::eval
