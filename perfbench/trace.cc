#include "trace.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

int Tracer::Begin(std::string name, int rep) {
  Record record;
  record.name = std::move(name);
  record.parent = open_.empty() ? -1 : open_.back();
  record.rep = rep;
  record.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - origin_)
                        .count();
  records_.push_back(std::move(record));
  open_.push_back(static_cast<int>(records_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("trace: span '" + records_.at(id).name +
                           "' closed out of order");
  }
  records_[id].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - origin_)
                            .count();
  open_.pop_back();
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0;
  for (const Record& r : records_) {
    if (r.name == name && r.end_ns >= 0) total += r.seconds();
  }
  return total;
}

double Tracer::SelfSeconds(const std::string& name) const {
  double self = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].name != name || records_[i].end_ns < 0) continue;
    self += records_[i].seconds();
    for (const Record& child : records_) {
      if (child.parent == static_cast<int>(i)) self -= child.seconds();
    }
  }
  return self;
}

namespace {

std::string Escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string Tracer::ChromeJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const char* sep = "\n";
  char buf[160];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    out += sep;
    sep = ",\n";
    out += "{\"name\":\"" + Escaped(r.name) + "\",\"cat\":\"" +
           Escaped(r.name.substr(0, r.name.find('.'))) + "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof buf,
                  ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"rep\":%d}}",
                  r.start_ns / 1e3, (r.end_ns - r.start_ns) / 1e3, i, r.parent,
                  r.rep);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

Span::Span(Tracer* tracer, std::string name, int rep)
    : tracer_(tracer), start_(std::chrono::steady_clock::now()) {
  if (tracer_ != nullptr) id_ = tracer_->Begin(std::move(name), rep);
}

double Span::Close() {
  if (seconds_ < 0) {
    seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start_)
                   .count();
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  return seconds_;
}

}  // namespace perfbench
