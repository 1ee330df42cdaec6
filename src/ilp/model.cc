#include "ilp/model.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace rdfsr::ilp {

int Model::AddVariable(std::string name, double lower, double upper,
                       bool is_integer) {
  RDFSR_CHECK_LE(lower, upper) << "variable '" << name << "' has empty domain";
  Variable v;
  v.name = std::move(name);
  v.lower = lower;
  v.upper = upper;
  v.is_integer = is_integer;
  variables_.push_back(std::move(v));
  return static_cast<int>(variables_.size()) - 1;
}

namespace {

std::vector<LinTerm> MergeTerms(std::vector<LinTerm> terms,
                                std::size_t num_variables) {
  std::map<int, double> merged;
  for (const LinTerm& t : terms) {
    RDFSR_CHECK_GE(t.var, 0);
    RDFSR_CHECK_LT(static_cast<std::size_t>(t.var), num_variables);
    merged[t.var] += t.coef;
  }
  std::vector<LinTerm> out;
  out.reserve(merged.size());
  for (const auto& [var, coef] : merged) {
    if (coef != 0.0) out.push_back({var, coef});
  }
  return out;
}

}  // namespace

int Model::AddConstraint(std::string name, std::vector<LinTerm> terms,
                         double lower, double upper) {
  RDFSR_CHECK_LE(lower, upper) << "constraint '" << name << "' is empty";
  Constraint c;
  c.name = std::move(name);
  c.terms = MergeTerms(std::move(terms), variables_.size());
  c.lower = lower;
  c.upper = upper;
  constraints_.push_back(std::move(c));
  return static_cast<int>(constraints_.size()) - 1;
}

void Model::SetConstraintTerms(int r, std::vector<LinTerm> terms, double lower,
                               double upper) {
  RDFSR_CHECK_GE(r, 0);
  RDFSR_CHECK_LT(static_cast<std::size_t>(r), constraints_.size());
  RDFSR_CHECK_LE(lower, upper)
      << "constraint '" << constraints_[r].name << "' is empty";
  Constraint& c = constraints_[r];
  c.terms = MergeTerms(std::move(terms), variables_.size());
  c.lower = lower;
  c.upper = upper;
}

void Model::SetConstraintBounds(int r, double lower, double upper) {
  RDFSR_CHECK_GE(r, 0);
  RDFSR_CHECK_LT(static_cast<std::size_t>(r), constraints_.size());
  RDFSR_CHECK_LE(lower, upper)
      << "constraint '" << constraints_[r].name << "' is empty";
  constraints_[r].lower = lower;
  constraints_[r].upper = upper;
}

void Model::SetObjective(std::vector<LinTerm> terms) {
  objective_ = MergeTerms(std::move(terms), variables_.size());
}

double Model::ObjectiveValue(const std::vector<double>& x) const {
  double value = 0.0;
  for (const LinTerm& t : objective_) value += t.coef * x[t.var];
  return value;
}

bool Model::IsFeasible(const std::vector<double>& x, double tolerance) const {
  if (x.size() != variables_.size()) return false;
  for (std::size_t j = 0; j < variables_.size(); ++j) {
    const Variable& v = variables_[j];
    if (x[j] < v.lower - tolerance || x[j] > v.upper + tolerance) return false;
    if (v.is_integer && std::abs(x[j] - std::round(x[j])) > tolerance) {
      return false;
    }
  }
  for (const Constraint& c : constraints_) {
    double sum = 0.0;
    for (const LinTerm& t : c.terms) sum += t.coef * x[t.var];
    // Scale the tolerance by the constraint's magnitude so rows with large
    // counts (threshold rows) are judged relatively.
    double scale = 1.0;
    for (const LinTerm& t : c.terms) scale = std::max(scale, std::abs(t.coef));
    if (sum < c.lower - tolerance * scale ||
        sum > c.upper + tolerance * scale) {
      return false;
    }
  }
  return true;
}

void Model::CheckInvariants() const {
  for (std::size_t j = 0; j < variables_.size(); ++j) {
    const Variable& v = variables_[j];
    RDFSR_CHECK_LE(v.lower, v.upper)
        << "variable '" << v.name << "' has an empty domain";
    RDFSR_CHECK(v.lower == v.lower && v.upper == v.upper)
        << "variable '" << v.name << "' has a NaN bound";
  }
  auto check_terms = [&](const std::vector<LinTerm>& terms,
                         const char* where) {
    int prev_var = -1;
    for (const LinTerm& t : terms) {
      RDFSR_CHECK_GE(t.var, 0) << where;
      RDFSR_CHECK_LT(static_cast<std::size_t>(t.var), variables_.size())
          << where << " references a variable past the model";
      RDFSR_CHECK_LT(prev_var, t.var)
          << where << " mentions a variable twice (terms must stay merged)";
      RDFSR_CHECK(t.coef != 0.0 && t.coef == t.coef)
          << where << " holds a zero or NaN coefficient";
      prev_var = t.var;
    }
  };
  for (const Constraint& c : constraints_) {
    RDFSR_CHECK_LE(c.lower, c.upper)
        << "constraint '" << c.name << "' has an empty range";
    RDFSR_CHECK(c.lower == c.lower && c.upper == c.upper)
        << "constraint '" << c.name << "' has a NaN bound";
    check_terms(c.terms, c.name.c_str());
  }
  check_terms(objective_, "objective");
}

std::string Model::ToString() const {
  std::ostringstream out;
  out << "model: " << variables_.size() << " vars, " << constraints_.size()
      << " constraints\n";
  auto print_terms = [&](const std::vector<LinTerm>& terms) {
    for (std::size_t i = 0; i < terms.size(); ++i) {
      if (i > 0) out << " + ";
      out << terms[i].coef << "*" << variables_[terms[i].var].name;
    }
  };
  if (!objective_.empty()) {
    out << "min ";
    print_terms(objective_);
    out << "\n";
  }
  for (const Constraint& c : constraints_) {
    out << c.name << ": ";
    if (c.lower > -kInfinity) out << c.lower << " <= ";
    print_terms(c.terms);
    if (c.upper < kInfinity) out << " <= " << c.upper;
    out << "\n";
  }
  return out.str();
}

}  // namespace rdfsr::ilp
