// N-Triples (RDF 1.1 line-based syntax) reader and writer.
//
// Supports IRIs, blank nodes, plain / language-tagged / datatyped literals,
// string escapes (\t \b \n \r \f \" \' \\ \uXXXX \UXXXXXXXX), comments, and
// blank lines. Errors report 1-based line numbers.
//
// The reader is streaming and zero-copy: terms are produced as TermViews
// pointing into the input buffer (escaped forms decode into reused scratch
// buffers), and files are read once into a single allocation. Parsing can be
// sharded across threads (ParseOptions::threads); chunks split at line
// boundaries and shard dictionaries merge by id-remap in chunk order — itself
// parallel when the destination graph starts empty (Graph::MergeShards) — so
// the resulting graph is bit-identical to a sequential parse for any thread
// count.

#ifndef RDFSR_RDF_NTRIPLES_H_
#define RDFSR_RDF_NTRIPLES_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include <vector>

#include "rdf/graph.h"
#include "util/deadline.h"
#include "util/status.h"

namespace rdfsr::util {
class ThreadPool;
}  // namespace rdfsr::util

namespace rdfsr::rdf {

/// One skipped input line from an error-tolerant parse: the 1-based global
/// line number (correct in sharded mode too) and the parser's message.
struct ParseDiagnostic {
  std::size_t line = 0;
  std::string message;
};

/// Knobs for the N-Triples reader.
struct ParseOptions {
  /// Number of parser threads. 1 parses sequentially; values < 1 mean one
  /// thread per hardware thread, and larger values are capped there. With a
  /// borrowed `pool` it is the number of chunks (shards) instead, run on the
  /// pool's lanes, and no hardware cap applies. Sharded parsing produces the
  /// same graph (same term ids, same triple order) as sequential, so this is
  /// a pure throughput knob. The count actually used is
  /// EffectiveParseThreads().
  int threads = 1;
  /// Inputs shorter than threads * min_chunk_bytes parse on fewer threads
  /// (each chunk keeps at least this many bytes) — thread startup would
  /// dominate. Tests lower this to force sharding on tiny inputs.
  std::size_t min_chunk_bytes = 1 << 20;
  /// Optional borrowed worker pool for the sharded path (parse + merge).
  /// When null, the parser spins up a temporary pool of the effective
  /// thread count. Callers that also parallelize downstream stages (the
  /// api::Dataset load chain) pass one pool through the whole pipeline.
  util::ThreadPool* pool = nullptr;
  /// Error tolerance: 0 (default) fails fast on the first malformed line.
  /// A positive value switches to skip-and-collect mode — up to this many
  /// malformed lines are skipped (recorded in `diagnostics` when set) and
  /// parsing succeeds with the graph bit-identical to parsing a pre-cleaned
  /// input; exceeding the budget aborts with kParseError. In sharded mode
  /// diagnostics carry global line numbers and arrive in line order.
  std::size_t max_errors = 0;
  /// When non-null and max_errors > 0, receives one entry per skipped line
  /// (appended; bounded by max_errors even on over-budget failure).
  std::vector<ParseDiagnostic>* diagnostics = nullptr;
  /// Cooperative cancellation: the parser polls this token every few
  /// thousand lines and unwinds with kCancelled / kDeadlineExceeded. The
  /// graph is always left in a valid state: the sequential path keeps the
  /// prefix parsed so far, the sharded path may leave it empty (the merge
  /// refuses to start once the token has tripped).
  util::CancellationToken cancel;
};

/// The thread (and chunk) count the reader will actually use for
/// `input_bytes` of text: `options.threads` with < 1 resolved to the hardware
/// concurrency, capped at the hardware concurrency unless `options.pool` is
/// set, then capped so every chunk keeps at least `options.min_chunk_bytes`
/// bytes. Pure: starts no thread.
int EffectiveParseThreads(const ParseOptions& options, std::size_t input_bytes);

/// Parses N-Triples text into a fresh graph.
Result<Graph> ParseNTriples(std::string_view text);

/// Parses N-Triples text, appending into an existing graph. On error the
/// graph keeps the triples parsed before the failing line.
Status ParseNTriplesInto(std::string_view text, Graph* graph);
Status ParseNTriplesInto(std::string_view text, Graph* graph,
                         const ParseOptions& options);

/// Parses an N-Triples file from disk (read once into a single buffer).
Result<Graph> ParseNTriplesFile(const std::string& path,
                                const ParseOptions& options = {});

/// Reads a whole file into one string with a single size-stat'ed allocation.
Result<std::string> ReadFileToString(const std::string& path);

/// Serializes a graph in N-Triples syntax (one triple per line, trailing " .").
std::string WriteNTriples(const Graph& graph);

/// Serializes a graph to a stream.
void WriteNTriples(const Graph& graph, std::ostream* out);

}  // namespace rdfsr::rdf

#endif  // RDFSR_RDF_NTRIPLES_H_
