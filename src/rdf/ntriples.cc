#include "rdf/ntriples.h"

#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace rdfsr::rdf {

namespace {

// Local early-return helper (kept file-private; not part of the public API).
#define RETURN_IF_ERROR(expr)                \
  do {                                       \
    ::rdfsr::Status _st = (expr);            \
    if (!_st.ok()) return _st;               \
  } while (0)

/// Cursor over a single N-Triples line, producing TermViews. Unescaped terms
/// view directly into the line; escaped forms decode into one of four scratch
/// buffers (subject, predicate, object lexical, object datatype) that are
/// reused across lines, so steady-state parsing does not allocate here.
/// Reusable: construct once, Reset() per line.
class LineParser {
 public:
  void Reset(std::string_view line, std::size_t line_no) {
    line_ = line;
    line_no_ = line_no;
    pos_ = 0;
    scratch_used_ = 0;
  }

  Status ParseTriple(TermView* s, TermView* p, TermView* o) {
    SkipWs();
    RETURN_IF_ERROR(ParseSubject(s));
    SkipWs();
    RETURN_IF_ERROR(ParseIriTerm(p, "predicate"));
    SkipWs();
    RETURN_IF_ERROR(ParseObject(o));
    SkipWs();
    if (!Consume('.')) return Error("expected '.' terminating triple");
    SkipWs();
    if (pos_ != line_.size() && line_[pos_] != '#') {
      return Error("trailing characters after '.'");
    }
    return Status::OK();
  }

 private:
  Status ParseSubject(TermView* out) {
    if (Peek() == '<') return ParseIriTerm(out, "subject");
    if (Peek() == '_') return ParseBlank(out);
    return Error("subject must be an IRI or blank node");
  }

  Status ParseObject(TermView* out) {
    if (Peek() == '<') return ParseIriTerm(out, "object");
    if (Peek() == '_') return ParseBlank(out);
    if (Peek() == '"') return ParseLiteral(out);
    return Error("object must be an IRI, blank node, or literal");
  }

  Status ParseIriTerm(TermView* out, const char* role) {
    if (!Consume('<')) {
      return Error(std::string("expected '<' starting ") + role);
    }
    const std::size_t start = pos_;
    std::string* scratch = nullptr;
    while (pos_ < line_.size() && line_[pos_] != '>') {
      const char c = line_[pos_];
      if (c == ' ' || c == '\t') return Error("whitespace inside IRI");
      if (c == '\\') {
        // IRIs only allow \u / \U escapes.
        if (scratch == nullptr) {
          scratch = NewScratch();
          scratch->assign(line_.substr(start, pos_ - start));
        }
        ++pos_;  // consume the backslash; cursor sits on the escape letter
        RETURN_IF_ERROR(DecodeUnicodeEscape(scratch));
        continue;
      }
      if (scratch != nullptr) scratch->push_back(c);
      ++pos_;
    }
    if (!Consume('>')) return Error("unterminated IRI");
    const std::string_view iri =
        scratch != nullptr ? std::string_view(*scratch)
                           : line_.substr(start, pos_ - 1 - start);
    if (iri.empty()) return Error("empty IRI");
    *out = TermView(TermKind::kIri, iri);
    return Status::OK();
  }

  Status ParseBlank(TermView* out) {
    if (!Consume('_') || !Consume(':')) {
      return Error("expected '_:' starting blank node");
    }
    const std::size_t start = pos_;
    while (pos_ < line_.size() && !IsWs(line_[pos_]) && line_[pos_] != '.') {
      ++pos_;
    }
    const std::string_view label = line_.substr(start, pos_ - start);
    if (label.empty()) return Error("empty blank node label");
    *out = TermView(TermKind::kBlank, label);
    return Status::OK();
  }

  Status ParseLiteral(TermView* out) {
    if (!Consume('"')) return Error("expected '\"' starting literal");
    const std::size_t start = pos_;
    std::string* scratch = nullptr;
    bool closed = false;
    while (pos_ < line_.size()) {
      const char c = line_[pos_];
      if (c == '"') {
        ++pos_;
        closed = true;
        break;
      }
      if (c == '\\') {
        if (scratch == nullptr) {
          scratch = NewScratch();
          scratch->assign(line_.substr(start, pos_ - start));
        }
        ++pos_;  // consume the backslash
        if (pos_ >= line_.size()) return Error("dangling escape in literal");
        const char e = line_[pos_];
        switch (e) {
          case 't':
            scratch->push_back('\t');
            ++pos_;
            break;
          case 'b':
            scratch->push_back('\b');
            ++pos_;
            break;
          case 'n':
            scratch->push_back('\n');
            ++pos_;
            break;
          case 'r':
            scratch->push_back('\r');
            ++pos_;
            break;
          case 'f':
            scratch->push_back('\f');
            ++pos_;
            break;
          case '"':
            scratch->push_back('"');
            ++pos_;
            break;
          case '\'':
            scratch->push_back('\'');
            ++pos_;
            break;
          case '\\':
            scratch->push_back('\\');
            ++pos_;
            break;
          case 'u':
          case 'U':
            // Cursor already sits on the escape letter.
            RETURN_IF_ERROR(DecodeUnicodeEscape(scratch));
            break;
          default:
            return Error(std::string("invalid escape '\\") + e + "'");
        }
        continue;
      }
      if (scratch != nullptr) scratch->push_back(c);
      ++pos_;
    }
    if (!closed) return Error("unterminated literal");
    const std::string_view lex =
        scratch != nullptr ? std::string_view(*scratch)
                           : line_.substr(start, pos_ - 1 - start);

    std::string_view lang, datatype;
    if (Peek() == '@') {
      ++pos_;
      const std::size_t lang_start = pos_;
      while (pos_ < line_.size() &&
             (std::isalnum(static_cast<unsigned char>(line_[pos_])) ||
              line_[pos_] == '-')) {
        ++pos_;
      }
      lang = line_.substr(lang_start, pos_ - lang_start);
      if (lang.empty()) return Error("empty language tag");
    } else if (Peek() == '^') {
      ++pos_;
      if (!Consume('^')) return Error("expected '^^' before datatype");
      TermView dt;
      RETURN_IF_ERROR(ParseIriTerm(&dt, "datatype"));
      datatype = dt.lexical;
    }
    *out = TermView(TermKind::kLiteral, lex, datatype, lang);
    return Status::OK();
  }

  /// Decodes \uXXXX or \UXXXXXXXX, appending UTF-8 to *out. The cursor must
  /// sit on the escape letter ('u' or 'U'); the backslash has already been
  /// consumed.
  Status DecodeUnicodeEscape(std::string* out) {
    if (pos_ >= line_.size()) return Error("dangling unicode escape");
    char kind = line_[pos_++];
    int digits = kind == 'u' ? 4 : kind == 'U' ? 8 : -1;
    if (digits < 0) return Error("invalid escape in IRI");
    if (pos_ + digits > line_.size()) return Error("truncated unicode escape");
    std::uint32_t cp = 0;
    for (int i = 0; i < digits; ++i) {
      char c = line_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in unicode escape");
      }
    }
    // Encode code point as UTF-8.
    if (cp <= 0x7f) {
      out->push_back(static_cast<char>(cp));
    } else if (cp <= 0x7ff) {
      out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else if (cp <= 0xffff) {
      out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else if (cp <= 0x10ffff) {
      out->push_back(static_cast<char>(0xf0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      return Error("unicode escape out of range");
    }
    return Status::OK();
  }

  static bool IsWs(char c) { return c == ' ' || c == '\t' || c == '\r'; }
  void SkipWs() {
    while (pos_ < line_.size() && IsWs(line_[pos_])) ++pos_;
  }
  char Peek() const { return pos_ < line_.size() ? line_[pos_] : '\0'; }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  Status Error(const std::string& msg) const {
    return Status::ParseError("line " + std::to_string(line_no_) + ": " + msg);
  }

  std::string* NewScratch() {
    RDFSR_CHECK_LT(scratch_used_, kMaxScratch);
    return &scratch_[scratch_used_++];
  }

  static constexpr int kMaxScratch = 4;  // subject, predicate, lexical, datatype

  std::string_view line_;
  std::size_t line_no_ = 0;
  std::size_t pos_ = 0;
  std::string scratch_[kMaxScratch];
  int scratch_used_ = 0;
};

/// Iterates the lines of `text`, invoking sink(s, p, o) per triple. Line
/// numbers are 1-based and offset by `first_line_no` (sharded chunks pass the
/// global number of their first line). Static dispatch on the sink keeps the
/// per-triple cost free of std::function indirection on the graph hot path.
///
/// With max_errors > 0 the loop runs in skip-and-collect mode: malformed
/// lines are skipped and recorded in `diags` (when non-null; at most
/// max_errors entries) until the budget is exceeded, at which point the loop
/// aborts with kParseError. The cancel token is polled every few thousand
/// lines; a trip unwinds with the sink's output so far intact.
template <typename Sink>
Status ParseLinesInto(std::string_view text, std::size_t first_line_no,
                      Sink&& sink, std::size_t max_errors = 0,
                      std::vector<ParseDiagnostic>* diags = nullptr,
                      const util::CancellationToken& cancel = {}) {
  LineParser parser;
  util::PeriodicCheck check(cancel, 4096);
  std::size_t errors = 0;
  std::size_t line_no = first_line_no;
  std::size_t start = 0;
  while (start < text.size()) {
    if (check.ShouldStop()) return check.token().status();
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    const std::size_t current_line = line_no;
    ++line_no;
    start = end + 1;
    // Strip leading whitespace; skip blank lines and comment lines.
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string_view::npos) continue;
    if (line[first] == '#') continue;
    TermView s, p, o;
    parser.Reset(line, current_line);
    Status st = parser.ParseTriple(&s, &p, &o);
    if (!st.ok()) {
      if (max_errors == 0) return st;
      ++errors;
      if (errors > max_errors) {
        return Status::ParseError(
            "too many parse errors (more than max_errors=" +
            std::to_string(max_errors) + "); last: " + st.message());
      }
      if (diags != nullptr && diags->size() < max_errors) {
        diags->push_back(ParseDiagnostic{current_line, st.message()});
      }
      continue;
    }
    sink(s, p, o);
  }
  return Status::OK();
}

/// Splits [0, size) into up to `shards` chunks whose boundaries sit just
/// after a '\n', so no line straddles two chunks.
std::vector<std::pair<std::size_t, std::size_t>> SplitAtLines(
    std::string_view text, int shards) {
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  const std::size_t target = text.size() / static_cast<std::size_t>(shards);
  std::size_t begin = 0;
  for (int i = 0; i < shards && begin < text.size(); ++i) {
    std::size_t end = text.size();
    if (i + 1 < shards) {
      end = text.find('\n', std::min(text.size(), begin + target));
      end = end == std::string_view::npos ? text.size() : end + 1;
    }
    chunks.emplace_back(begin, end);
    begin = end;
  }
  return chunks;
}

/// Sharded parse: each worker parses its chunk into a private graph with a
/// private dictionary; the shards then merge into `graph` in chunk order,
/// interning each shard's terms in shard-local id order. Both orders coincide
/// with first-occurrence order in the byte stream, so the merged graph is
/// bit-identical (term ids, triple order) to a sequential parse. The merge
/// itself runs on the pool (Graph::MergeShards) when `graph` starts empty;
/// appends to a non-empty graph fall back to the serial id-remap loop.
Status ParseShardedInto(std::string_view text, Graph* graph, int threads,
                        util::ThreadPool* pool, const ParseOptions& options) {
  const auto chunks = SplitAtLines(text, threads);

  // Global line number of each chunk's first line: parallel per-chunk
  // newline counts (memchr speed, but serial it costs as much as a parse
  // shard on large inputs), then a serial prefix. The total doubles as the
  // pre-size estimate for the serial merge path.
  std::vector<std::size_t> chunk_lines(chunks.size());
  pool->ParallelFor(chunks.size(), [&](std::size_t cb, std::size_t ce) {
    for (std::size_t i = cb; i < ce; ++i) {
      const auto [begin, end] = chunks[i];
      chunk_lines[i] = static_cast<std::size_t>(
          std::count(text.begin() + static_cast<std::ptrdiff_t>(begin),
                     text.begin() + static_cast<std::ptrdiff_t>(end), '\n'));
    }
  });
  std::vector<std::size_t> first_line(chunks.size());
  std::size_t line = 1;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    first_line[i] = line;
    line += chunk_lines[i];
  }

  std::vector<Graph> shards(chunks.size());
  std::vector<Status> shard_status(chunks.size(), Status::OK());
  // Per-shard diagnostic lists carry global line numbers (first_line[i]
  // offsets) and double as the per-shard error counters; each shard gets the
  // full budget locally and the global total is re-checked in chunk order
  // below.
  std::vector<std::vector<ParseDiagnostic>> shard_diags(chunks.size());
  pool->ParallelFor(chunks.size(), [&](std::size_t cb, std::size_t ce) {
    for (std::size_t i = cb; i < ce; ++i) {
      const auto [begin, end] = chunks[i];
      Graph& local = shards[i];
      shard_status[i] = ParseLinesInto(
          text.substr(begin, end - begin), first_line[i],
          [&local](const TermView& s, const TermView& p, const TermView& o) {
            local.Add(s, p, o);
          },
          options.max_errors,
          options.max_errors > 0 ? &shard_diags[i] : nullptr, options.cancel);
    }
  });

  // Merge in chunk order up to and including the first failing shard (lowest
  // line number), keeping the triples parsed before the error — same
  // partial-append semantics as the sequential parser. In tolerant mode a
  // shard that stayed under budget locally can still tip the global total
  // over max_errors; that counts as failing at that shard.
  std::size_t merge_count = shards.size();
  Status result = Status::OK();
  std::size_t total_errors = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (!shard_status[i].ok()) {
      merge_count = i + 1;
      result = shard_status[i];
      break;
    }
    if (options.max_errors > 0) {
      total_errors += shard_diags[i].size();
      if (total_errors > options.max_errors) {
        merge_count = i + 1;
        result = Status::ParseError(
            "too many parse errors (more than max_errors=" +
            std::to_string(options.max_errors) + ")");
        break;
      }
    }
  }
  if (options.max_errors > 0 && options.diagnostics != nullptr) {
    // Chunk order == line order; bounded by max_errors even on failure.
    for (std::size_t i = 0; i < merge_count; ++i) {
      for (ParseDiagnostic& d : shard_diags[i]) {
        if (options.diagnostics->size() >= options.max_errors) break;
        options.diagnostics->push_back(std::move(d));
      }
    }
  }

  if (graph->empty() && graph->dict().size() == 0) {
    Status merge_st =
        graph->MergeShards(&shards, merge_count, pool, options.cancel);
    if (!merge_st.ok()) return merge_st;
    return result;
  }
  if (text.size() >= (1u << 20)) graph->Reserve(line, line);
  std::vector<TermId> remap;
  for (std::size_t s = 0; s < merge_count; ++s) {
    const Dictionary& shard_dict = shards[s].dict();
    remap.resize(shard_dict.size());
    for (TermId id = 0; id < shard_dict.size(); ++id) {
      remap[id] = graph->dict().Intern(shard_dict.term(id));
    }
    for (const Triple& t : shards[s].triples()) {
      graph->Add(Triple{remap[t.subject], remap[t.predicate], remap[t.object]});
    }
  }
  return result;
}

}  // namespace

int EffectiveParseThreads(const ParseOptions& options, std::size_t input_bytes) {
  int threads = util::ThreadPool::ResolveThreads(options.threads);
  // Threads the reader starts itself stop at the hardware count: more only
  // add shards to merge. A borrowed pool bounds the lanes instead, and its
  // chunks beyond the lane count queue as tasks.
  if (options.pool == nullptr) {
    threads = std::min(threads, util::ThreadPool::ResolveThreads(0));
  }
  if (threads > 1 && options.min_chunk_bytes > 0) {
    const std::size_t max_useful = input_bytes / options.min_chunk_bytes;
    if (static_cast<std::size_t>(threads) > max_useful) {
      threads = static_cast<int>(std::max<std::size_t>(max_useful, 1));
    }
  }
  return threads;
}

Status ParseNTriplesInto(std::string_view text, Graph* graph) {
  return ParseNTriplesInto(text, graph, ParseOptions{});
}

Status ParseNTriplesInto(std::string_view text, Graph* graph,
                         const ParseOptions& options) {
  RDFSR_CHECK(graph != nullptr);
  const int threads = EffectiveParseThreads(options, text.size());
  if (threads > 1) {
    // One pool drives the whole sharded path: chunk line counts, the shard
    // parses, and every merge phase. `threads - 1` workers plus the calling
    // thread gives exactly `threads` lanes.
    util::ThreadPool* pool = options.pool;
    std::unique_ptr<util::ThreadPool> owned;
    if (pool == nullptr) {
      owned = std::make_unique<util::ThreadPool>(threads - 1);
      pool = owned.get();
    }
    return ParseShardedInto(text, graph, threads, pool, options);
  }
  // Pre-size the graph from a newline count (memchr-speed pass): line count
  // upper-bounds the triple count, and distinct terms rarely exceed lines
  // (subjects and predicates repeat; objects are the unique tail).
  if (text.size() >= (1u << 20)) {
    const auto lines = static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n') + 1);
    graph->Reserve(lines, lines);
  }
  return ParseLinesInto(
      text, 1,
      [graph](const TermView& s, const TermView& p, const TermView& o) {
        graph->Add(s, p, o);
      },
      options.max_errors, options.diagnostics, options.cancel);
}

Result<Graph> ParseNTriples(std::string_view text) {
  Graph g;
  Status st = ParseNTriplesInto(text, &g);
  if (!st.ok()) return st;
  return g;
}

Result<std::string> ReadFileToString(const std::string& path) {
  RDFSR_FAILPOINT("ntriples.read-file");
  struct stat sb;
  if (::stat(path.c_str(), &sb) != 0) {
    const int err = errno;
    return Status::NotFound("cannot open file: " + path + ": " +
                            std::strerror(err));
  }
  if (S_ISDIR(sb.st_mode)) {
    return Status::InvalidArgument("not a regular file (is a directory): " +
                                   path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    const int err = errno;
    return Status::NotFound("cannot open file: " + path + ": " +
                            (err != 0 ? std::strerror(err) : "open failed"));
  }
  const auto size = static_cast<std::streamoff>(sb.st_size);
  std::string buf(static_cast<std::size_t>(size), '\0');
  if (size > 0 && !in.read(buf.data(), size)) {
    // gcount() says how far the read got before the stream failed — a
    // truncated device file or concurrent truncation must surface as an
    // error, never as a silently shorter graph.
    return Status::Internal(
        "short read on file: " + path + ": got " +
        std::to_string(in.gcount()) + " of " + std::to_string(size) +
        " bytes");
  }
  return buf;
}

Result<Graph> ParseNTriplesFile(const std::string& path,
                                const ParseOptions& options) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  Graph g;
  Status st = ParseNTriplesInto(*text, &g, options);
  if (!st.ok()) return st;
  return g;
}

void WriteNTriples(const Graph& graph, std::ostream* out) {
  RDFSR_CHECK(out != nullptr);
  const Dictionary& dict = graph.dict();
  for (const Triple& t : graph.triples()) {
    *out << dict.term(t.subject).ToString() << " "
         << dict.term(t.predicate).ToString() << " "
         << dict.term(t.object).ToString() << " .\n";
  }
}

std::string WriteNTriples(const Graph& graph) {
  std::ostringstream out;
  WriteNTriples(graph, &out);
  return out.str();
}

}  // namespace rdfsr::rdf
