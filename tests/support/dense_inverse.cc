#include "support/dense_inverse.h"

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace rdfsr::ilp {
namespace {

/// Smallest replacement pivot an update accepts, as in the sparse LU.
constexpr double kUpdatePivotTol = 1e-9;

class DenseInverse final : public BasisRep {
 public:
  explicit DenseInverse(int m) : m_(m), lu_(MakeLuFactorization(m)) {}

  void Factorize(const SparseColumns& cols, int n_struct,
                 std::vector<int>* basic, std::vector<int>* ejected) override {
    lu_->Factorize(cols, n_struct, basic, ejected);
    binv_.assign(static_cast<std::size_t>(m_) * m_, 0.0);
    std::vector<double> col(m_);
    for (int i = 0; i < m_; ++i) {
      col.assign(m_, 0.0);
      col[i] = 1.0;
      lu_->Ftran(&col);  // column i of B^-1
      for (int r = 0; r < m_; ++r) {
        binv_[static_cast<std::size_t>(r) * m_ + i] = col[r];
      }
    }
  }

  void Ftran(std::vector<double>* v) const override {
    std::vector<double>& out = scratch_;
    out.assign(m_, 0.0);
    for (int r = 0; r < m_; ++r) {
      const double* row = &binv_[static_cast<std::size_t>(r) * m_];
      double acc = 0.0;
      for (int k = 0; k < m_; ++k) acc += row[k] * (*v)[k];
      out[r] = acc;
    }
    v->swap(out);
  }

  void FtranColumn(const std::vector<std::pair<int, double>>& column,
                   std::vector<double>* w) const override {
    // Exploits the column's sparsity: O(nnz * m) instead of O(m^2).
    w->assign(m_, 0.0);
    for (const auto& [row, coef] : column) {
      for (int r = 0; r < m_; ++r) {
        (*w)[r] += binv_[static_cast<std::size_t>(r) * m_ + row] * coef;
      }
    }
  }

  void Btran(std::vector<double>* v) const override {
    std::vector<double>& out = scratch_;
    out.assign(m_, 0.0);
    for (int r = 0; r < m_; ++r) {
      const double cr = (*v)[r];
      if (cr == 0.0) continue;
      const double* row = &binv_[static_cast<std::size_t>(r) * m_];
      for (int k = 0; k < m_; ++k) out[k] += row[k] * cr;
    }
    v->swap(out);
  }

  bool Update(int pos, const std::vector<double>& w) override {
    const double piv = w[pos];
    if (std::fabs(piv) < kUpdatePivotTol) return false;
    double* prow = &binv_[static_cast<std::size_t>(pos) * m_];
    const double inv = 1.0 / piv;
    for (int k = 0; k < m_; ++k) prow[k] *= inv;
    for (int i = 0; i < m_; ++i) {
      if (i == pos) continue;
      const double f = w[i];
      if (f == 0.0) continue;
      double* row = &binv_[static_cast<std::size_t>(i) * m_];
      for (int k = 0; k < m_; ++k) row[k] -= f * prow[k];
    }
    return true;
  }

 private:
  int m_;
  std::unique_ptr<BasisRep> lu_;
  std::vector<double> binv_;  // row-major: binv_[pos][row]
  mutable std::vector<double> scratch_;
};

}  // namespace

std::unique_ptr<BasisRep> MakeDenseInverse(int m) {
  return std::make_unique<DenseInverse>(m);
}

}  // namespace rdfsr::ilp
