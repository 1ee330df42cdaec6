// Unit tests for the N-Triples parser and writer, including escape handling,
// error reporting (failure injection), streaming/zero-copy parsing, and the
// sharded multi-threaded reader (chunk-boundary line splitting, global error
// line numbers, bit-identical merge).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "gen/random_graph.h"
#include "rdf/ntriples.h"
#include "util/thread_pool.h"

namespace rdfsr::rdf {
namespace {

/// Synthetic multi-line input: `lines` triples with distinct subjects, a
/// shared predicate pool, and occasional comments/blanks.
std::string ManyLines(int lines) {
  std::string text;
  for (int i = 0; i < lines; ++i) {
    if (i % 17 == 0) text += "# comment " + std::to_string(i) + "\n";
    if (i % 23 == 0) text += "\n";
    text += "<http://x/s" + std::to_string(i % 37) + "> <http://x/p" +
            std::to_string(i % 5) + "> \"value " + std::to_string(i) +
            "\" .\n";
  }
  return text;
}

/// Asserts two graphs are bit-identical: same dictionary contents in the same
/// id order and the same triple id sequence.
void ExpectGraphsIdentical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.dict().size(), b.dict().size());
  for (TermId id = 0; id < a.dict().size(); ++id) {
    EXPECT_EQ(a.dict().term(id), b.dict().term(id)) << "term id " << id;
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.triples()[i].subject, b.triples()[i].subject) << "triple " << i;
    EXPECT_EQ(a.triples()[i].predicate, b.triples()[i].predicate)
        << "triple " << i;
    EXPECT_EQ(a.triples()[i].object, b.triples()[i].object) << "triple " << i;
  }
}

/// Options that split a small input into `shards` chunks run on `pool`. A
/// borrowed pool lifts the hardware-thread cap, so the shard count does not
/// depend on the machine; chunks beyond the pool's lanes queue as tasks.
ParseOptions ShardedOptions(int shards, util::ThreadPool* pool) {
  ParseOptions options;
  options.threads = shards;
  options.min_chunk_bytes = 1;  // force sharding on small inputs
  options.pool = pool;
  return options;
}

TEST(NTriplesTest, ParsesIriTriple) {
  auto g = ParseNTriples("<http://x/s> <http://x/p> <http://x/o> .\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->size(), 1u);
}

TEST(NTriplesTest, ParsesLiteralForms) {
  const char* text =
      "<s> <p> \"plain\" .\n"
      "<s> <p> \"tagged\"@en-GB .\n"
      "<s> <p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
  auto g = ParseNTriples(text);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->size(), 3u);
}

TEST(NTriplesTest, ParsesBlankNodes) {
  auto g = ParseNTriples("_:a <p> _:b .\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->size(), 1u);
  EXPECT_TRUE(g->dict().term(g->triples()[0].subject).is_blank());
}

TEST(NTriplesTest, SkipsCommentsAndBlankLines) {
  const char* text =
      "# a comment\n"
      "\n"
      "   \n"
      "<s> <p> <o> . # trailing comment\n";
  auto g = ParseNTriples(text);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->size(), 1u);
}

TEST(NTriplesTest, DecodesStringEscapes) {
  auto g = ParseNTriples("<s> <p> \"a\\tb\\nc\\\"d\\\\e\" .\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const Term& o = g->dict().term(g->triples()[0].object);
  EXPECT_EQ(o.lexical, "a\tb\nc\"d\\e");
}

TEST(NTriplesTest, DecodesUnicodeEscapes) {
  auto g = ParseNTriples("<s> <p> \"\\u00e9\\U0001F600\" .\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const Term& o = g->dict().term(g->triples()[0].object);
  EXPECT_EQ(o.lexical, "\xc3\xa9\xf0\x9f\x98\x80");  // é + 😀 in UTF-8

  // Escaped IRIs and literal escapes decode too, even though unescaped forms
  // are parsed zero-copy.
  auto escaped =
      ParseNTriples("<http://x/caf\\u00e9> <http://x/p> \"a\\tb\" .\n");
  ASSERT_TRUE(escaped.ok()) << escaped.status().ToString();
  const Triple& t = escaped->triples()[0];
  EXPECT_EQ(escaped->dict().term(t.subject).lexical, "http://x/caf\xc3\xa9");
  EXPECT_EQ(escaped->dict().term(t.object).lexical, "a\tb");
}

TEST(NTriplesTest, ErrorsCarryLineNumbers) {
  auto g = ParseNTriples("<s> <p> <o> .\nnot a triple\n");
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("line 2"), std::string::npos);
}

TEST(NTriplesTest, RejectsMissingDot) {
  EXPECT_FALSE(ParseNTriples("<s> <p> <o>\n").ok());
}

TEST(NTriplesTest, RejectsLiteralSubject) {
  EXPECT_FALSE(ParseNTriples("\"lit\" <p> <o> .\n").ok());
}

TEST(NTriplesTest, RejectsUnterminatedIri) {
  EXPECT_FALSE(ParseNTriples("<s <p> <o> .\n").ok());
}

TEST(NTriplesTest, RejectsUnterminatedLiteral) {
  EXPECT_FALSE(ParseNTriples("<s> <p> \"abc .\n").ok());
}

TEST(NTriplesTest, RejectsBadEscape) {
  EXPECT_FALSE(ParseNTriples("<s> <p> \"a\\qb\" .\n").ok());
}

TEST(NTriplesTest, RejectsTruncatedUnicode) {
  EXPECT_FALSE(ParseNTriples("<s> <p> \"\\u00\" .\n").ok());
}

TEST(NTriplesTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseNTriples("<s> <p> <o> . extra\n").ok());
}

TEST(NTriplesTest, RejectsEmptyLanguageTag) {
  EXPECT_FALSE(ParseNTriples("<s> <p> \"x\"@ .\n").ok());
}

TEST(NTriplesTest, WriterRoundTrips) {
  const char* text =
      "<http://x/s> <http://x/p> \"a\\tb \\\"q\\\" \\\\z\"@en .\n"
      "<http://x/s> <http://x/p2> \"5\"^^<http://x/int> .\n"
      "_:b <http://x/p> <http://x/o> .\n";
  auto g1 = ParseNTriples(text);
  ASSERT_TRUE(g1.ok()) << g1.status().ToString();
  const std::string serialized = WriteNTriples(*g1);
  auto g2 = ParseNTriples(serialized);
  ASSERT_TRUE(g2.ok()) << g2.status().ToString();
  ASSERT_EQ(g1->size(), g2->size());
  // Compare term-level content triple by triple.
  for (std::size_t i = 0; i < g1->size(); ++i) {
    const Triple& t1 = g1->triples()[i];
    const Triple& t2 = g2->triples()[i];
    EXPECT_EQ(g1->dict().term(t1.subject), g2->dict().term(t2.subject));
    EXPECT_EQ(g1->dict().term(t1.predicate), g2->dict().term(t2.predicate));
    EXPECT_EQ(g1->dict().term(t1.object), g2->dict().term(t2.object));
  }
}

TEST(NTriplesTest, ParseIntoAppends) {
  Graph g;
  ASSERT_TRUE(ParseNTriplesInto("<s> <p> <o> .\n", &g).ok());
  ASSERT_TRUE(ParseNTriplesInto("<s2> <p> <o> .\n", &g).ok());
  EXPECT_EQ(g.size(), 2u);
}

TEST(NTriplesTest, MissingFileIsNotFound) {
  auto g = ParseNTriplesFile("/nonexistent/path.nt");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kNotFound);
}

TEST(NTriplesTest, ReadFileToStringSingleBuffer) {
  const std::string path = ::testing::TempDir() + "ntriples_read_once.nt";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("<http://x/s> <http://x/p> \"v\" .\n", f);
    std::fclose(f);
  }
  auto text = ReadFileToString(path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text, "<http://x/s> <http://x/p> \"v\" .\n");
  std::remove(path.c_str());
}

TEST(NTriplesTest, ShardedParseMatchesSequentialBitForBit) {
  const std::string text = ManyLines(500);
  Graph sequential;
  ASSERT_TRUE(ParseNTriplesInto(text, &sequential).ok());
  util::ThreadPool pool(2);
  for (int threads : {2, 3, 4, 8}) {
    const ParseOptions options = ShardedOptions(threads, &pool);
    ASSERT_EQ(EffectiveParseThreads(options, text.size()), threads);
    Graph sharded;
    ASSERT_TRUE(ParseNTriplesInto(text, &sharded, options).ok())
        << threads << " threads";
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ExpectGraphsIdentical(sharded, sequential);
  }
}

TEST(NTriplesTest, EffectiveParseThreadsCapsAtHardwareThreads) {
  // Pure arithmetic: no parse runs and no thread starts.
  const int hardware = util::ThreadPool::ResolveThreads(0);
  ParseOptions options;
  options.threads = 64;
  const std::size_t one_gib = std::size_t{1} << 30;
  const int threads = EffectiveParseThreads(options, one_gib);
  EXPECT_GE(threads, 1);
  EXPECT_LE(threads, hardware);
  EXPECT_EQ(threads, std::min(64, hardware));  // 1 GiB fills every chunk
  options.threads = 0;  // auto
  EXPECT_EQ(EffectiveParseThreads(options, one_gib), hardware);
  options.threads = 1;
  EXPECT_EQ(EffectiveParseThreads(options, one_gib), 1);
  // A borrowed pool (here one of 0 workers, which starts no thread either)
  // bounds the lanes itself: the count is then the chunk count, uncapped.
  util::ThreadPool inline_pool(0);
  options.pool = &inline_pool;
  options.threads = 64;
  EXPECT_EQ(EffectiveParseThreads(options, one_gib), 64);
}

TEST(NTriplesTest, ShardedParseHandlesChunkBoundaryLines) {
  // With min_chunk_bytes = 1 and many shards, chunk boundaries land inside
  // the line stream; every split must snap to a line boundary so no triple is
  // lost or torn.
  const std::string text = ManyLines(64);
  util::ThreadPool pool(2);
  const ParseOptions options = ShardedOptions(16, &pool);
  ASSERT_EQ(EffectiveParseThreads(options, text.size()), 16);
  Graph sharded;
  ASSERT_TRUE(ParseNTriplesInto(text, &sharded, options).ok());
  Graph sequential;
  ASSERT_TRUE(ParseNTriplesInto(text, &sequential).ok());
  ExpectGraphsIdentical(sharded, sequential);
}

TEST(NTriplesTest, ShardedParseReportsGlobalErrorLine) {
  // Place the bad line deep enough that it falls in a later chunk; the error
  // must carry the global line number, not the chunk-local one.
  std::string text = ManyLines(200);
  const std::size_t lines_before =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  text += "this is not a triple\n";
  text += ManyLines(10);
  util::ThreadPool pool(2);
  const ParseOptions options = ShardedOptions(4, &pool);
  ASSERT_EQ(EffectiveParseThreads(options, text.size()), 4);
  Graph g;
  Status st = ParseNTriplesInto(text, &g, options);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line " + std::to_string(lines_before + 1)),
            std::string::npos)
      << st.ToString();
}

TEST(NTriplesTest, ShardedParseReportsEarliestError) {
  // Errors in several chunks: the reported error must be the first one in
  // line order, matching sequential semantics.
  std::string text = ManyLines(50);
  const std::size_t first_bad =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  text += "bad line one\n";
  text += ManyLines(100);
  text += "bad line two\n";
  util::ThreadPool pool(2);
  const ParseOptions options = ShardedOptions(6, &pool);
  ASSERT_EQ(EffectiveParseThreads(options, text.size()), 6);
  Graph g;
  Status st = ParseNTriplesInto(text, &g, options);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line " + std::to_string(first_bad)),
            std::string::npos)
      << st.ToString();
}

TEST(NTriplesTest, RandomGraphsIdenticalAcrossThreadCounts) {
  // The contract is bit-identity for *any* shard count, including counts
  // above the hardware concurrency. Random generator graphs exercise the
  // messy shapes (blank nodes, duplicate triples, literals with datatypes)
  // that the ManyLines tests above do not.
  util::ThreadPool pool(2);
  for (const std::uint64_t seed : {2u, 9u, 31u}) {
    gen::RandomGraphSpec spec;
    spec.num_subjects = 120;
    spec.num_properties = 10;
    spec.num_sorts = 2;
    spec.seed = seed;
    const std::string text = WriteNTriples(gen::GenerateRandomGraph(spec));
    Graph sequential;
    ASSERT_TRUE(ParseNTriplesInto(text, &sequential).ok());
    for (const int threads : {1, 2, 8}) {
      const ParseOptions options = ShardedOptions(threads, &pool);
      ASSERT_EQ(EffectiveParseThreads(options, text.size()), threads);
      Graph parsed;
      ASSERT_TRUE(ParseNTriplesInto(text, &parsed, options).ok())
          << "seed " << seed << " threads " << threads;
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                   std::to_string(threads));
      ExpectGraphsIdentical(parsed, sequential);
      // The derived posting orders feed the signature index — they must
      // match too, not just the raw triple stream.
      EXPECT_EQ(parsed.subjects(), sequential.subjects());
      EXPECT_EQ(parsed.properties(), sequential.properties());
    }
  }
}

TEST(NTriplesTest, ParseFileWithThreadsMatchesSequential) {
  const std::string path = ::testing::TempDir() + "ntriples_sharded.nt";
  const std::string text = ManyLines(300);
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  auto sequential = ParseNTriplesFile(path);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  util::ThreadPool pool(2);
  const ParseOptions options = ShardedOptions(4, &pool);
  ASSERT_EQ(EffectiveParseThreads(options, text.size()), 4);
  auto sharded = ParseNTriplesFile(path, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectGraphsIdentical(*sharded, *sequential);
  std::remove(path.c_str());
}

/// Interleaves `text`'s lines with `bad` malformed lines at fixed intervals,
/// returning the dirty text and the 1-based global line numbers of the bad
/// lines.
std::string Dirty(const std::string& text, int every,
                  std::vector<std::size_t>* bad_lines) {
  std::string out;
  std::size_t line_no = 0;
  int countdown = every;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t end = eol == std::string::npos ? text.size() : eol + 1;
    if (--countdown == 0) {
      out += "not a triple at all\n";
      bad_lines->push_back(++line_no);
      countdown = every;
    }
    out.append(text, pos, end - pos);
    ++line_no;
    pos = end;
  }
  return out;
}

TEST(NTriplesTest, TolerantParseSkipsBadLinesBitIdentical) {
  const std::string clean = ManyLines(120);
  std::vector<std::size_t> bad_lines;
  const std::string dirty = Dirty(clean, 13, &bad_lines);
  ASSERT_FALSE(bad_lines.empty());

  Graph expected;
  ASSERT_TRUE(ParseNTriplesInto(clean, &expected).ok());

  ParseOptions options;
  options.max_errors = bad_lines.size();
  std::vector<ParseDiagnostic> diags;
  options.diagnostics = &diags;
  Graph tolerant;
  Status st = ParseNTriplesInto(dirty, &tolerant, options);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectGraphsIdentical(tolerant, expected);
  ASSERT_EQ(diags.size(), bad_lines.size());
  for (std::size_t i = 0; i < diags.size(); ++i) {
    EXPECT_EQ(diags[i].line, bad_lines[i]) << "diagnostic " << i;
    EXPECT_FALSE(diags[i].message.empty());
  }
}

TEST(NTriplesTest, TolerantParseFailsPastBudget) {
  const std::string clean = ManyLines(60);
  std::vector<std::size_t> bad_lines;
  const std::string dirty = Dirty(clean, 7, &bad_lines);
  ASSERT_GT(bad_lines.size(), 2u);

  ParseOptions options;
  options.max_errors = 2;  // fewer than the bad lines present
  std::vector<ParseDiagnostic> diags;
  options.diagnostics = &diags;
  Graph g;
  Status st = ParseNTriplesInto(dirty, &g, options);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("max_errors"), std::string::npos)
      << st.ToString();
  // Diagnostics stay bounded by the budget even on failure.
  EXPECT_LE(diags.size(), options.max_errors);
}

TEST(NTriplesTest, TolerantShardedParseMatchesSequentialWithGlobalLines) {
  const std::string clean = ManyLines(400);
  std::vector<std::size_t> bad_lines;
  const std::string dirty = Dirty(clean, 31, &bad_lines);
  ASSERT_FALSE(bad_lines.empty());

  Graph expected;
  ASSERT_TRUE(ParseNTriplesInto(clean, &expected).ok());

  util::ThreadPool pool(2);
  for (const int threads : {2, 4, 8}) {
    ParseOptions options = ShardedOptions(threads, &pool);
    ASSERT_EQ(EffectiveParseThreads(options, dirty.size()), threads);
    options.max_errors = bad_lines.size();
    std::vector<ParseDiagnostic> diags;
    options.diagnostics = &diags;
    Graph tolerant;
    Status st = ParseNTriplesInto(dirty, &tolerant, options);
    ASSERT_TRUE(st.ok()) << threads << " threads: " << st.ToString();
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ExpectGraphsIdentical(tolerant, expected);
    // Global line numbers in input order, exactly as the sequential parse
    // reports them.
    ASSERT_EQ(diags.size(), bad_lines.size());
    for (std::size_t i = 0; i < diags.size(); ++i) {
      EXPECT_EQ(diags[i].line, bad_lines[i]) << "diagnostic " << i;
    }
  }
}

TEST(NTriplesTest, TolerantShardedParseFailsPastBudget) {
  const std::string clean = ManyLines(200);
  std::vector<std::size_t> bad_lines;
  const std::string dirty = Dirty(clean, 11, &bad_lines);
  util::ThreadPool pool(2);
  ParseOptions options = ShardedOptions(4, &pool);
  ASSERT_EQ(EffectiveParseThreads(options, dirty.size()), 4);
  options.max_errors = 3;
  Graph g;
  Status st = ParseNTriplesInto(dirty, &g, options);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(NTriplesTest, ReadFileDirectoryIsInvalidArgument) {
  auto text = ReadFileToString(::testing::TempDir());
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(text.status().message().find("directory"), std::string::npos)
      << text.status().ToString();
}

TEST(NTriplesTest, MissingFileErrorNamesPath) {
  auto g = ParseNTriplesFile("/no/such/dir/missing.nt");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kNotFound);
  EXPECT_NE(g.status().message().find("/no/such/dir/missing.nt"),
            std::string::npos)
      << g.status().ToString();
}

TEST(NTriplesTest, CancelledParseKeepsValidPrefix) {
  // Large enough that the parser's stride-4096 checkpoint actually samples
  // the token.
  const std::string text = ManyLines(10000);
  util::Deadline deadline = util::Deadline::Cancellable();
  deadline.RequestCancel();
  ParseOptions options;
  options.cancel = deadline.token();
  Graph g;
  Status st = ParseNTriplesInto(text, &g, options);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  // Whatever prefix was parsed must be a coherent graph.
  g.CheckInvariants();
}

}  // namespace
}  // namespace rdfsr::rdf
