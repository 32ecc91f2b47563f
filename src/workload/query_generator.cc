#include "workload/query_generator.h"

#include "common/string_util.h"
#include "xpath/parser.h"

namespace xpstream {

namespace {

class Generator {
 public:
  Generator(Random* rng, const QueryGenOptions& opts)
      : rng_(rng), opts_(opts) {}

  std::string Name() {
    if (opts_.distinct_names) {
      return StringPrintf("n%zu", counter_++);
    }
    size_t pool = std::min(opts_.name_pool, opts_.names.size());
    return opts_.names[rng_->Uniform(pool)];
  }

  /// A simple relative path for use inside predicates.
  std::string RelPath(size_t depth) {
    std::string path;
    if (rng_->Bernoulli(opts_.descendant_prob)) path += ".//";
    path += Name();
    if (depth > 1 && rng_->Bernoulli(0.3)) {
      path += rng_->Bernoulli(opts_.descendant_prob) ? "//" : "/";
      path += Name();
    }
    return path;
  }

  /// One univariate atomic predicate.
  std::string Atom(size_t depth) {
    std::string path = RelPath(depth);
    switch (rng_->Uniform(7)) {
      case 0:
        return path;  // existence
      case 1:
        return path + " > " + StringPrintf("%d", (int)rng_->Uniform(10));
      case 2:
        return path + " < " + StringPrintf("%d", (int)rng_->Uniform(20));
      case 3:
        return path + " = " + StringPrintf("%d", (int)rng_->Uniform(10));
      case 4:
        return path + " = \"" + rng_->NextName(2) + "\"";
      case 5:
        return "contains(" + path + ", \"" + rng_->NextName(1) + "\")";
      default:
        return "starts-with(" + path + ", \"" + rng_->NextName(1) + "\")";
    }
  }

  /// "[A and B ...]" or "".
  std::string Predicate(size_t depth) {
    if (depth == 0) return "";
    size_t parts = rng_->Uniform(opts_.max_predicate_children + 1);
    if (parts == 0) return "";
    std::string out = "[";
    for (size_t i = 0; i < parts; ++i) {
      if (i > 0) out += " and ";
      // Nest a structural predicate child with its own predicate
      // occasionally, to exercise twig shapes.
      if (rng_->Bernoulli(0.25) && depth > 1) {
        out += Name() + Predicate(depth - 1);
      } else if (rng_->Bernoulli(opts_.value_predicate_prob)) {
        out += Atom(depth);
      } else {
        out += RelPath(depth);
      }
    }
    return out + "]";
  }

  /// Successor chain starting with an axis token.
  std::string Steps(size_t depth) {
    std::string out = rng_->Bernoulli(opts_.descendant_prob) ? "//" : "/";
    out += Name();
    out += Predicate(depth);
    if (depth > 1 && rng_->Bernoulli(0.6)) {
      out += Steps(depth - 1);
    }
    return out;
  }

 private:
  Random* rng_;
  const QueryGenOptions& opts_;
  size_t counter_ = 0;
};

}  // namespace

Result<std::unique_ptr<Query>> GenerateRandomQuery(
    Random* rng, const QueryGenOptions& opts) {
  Generator gen(rng, opts);
  std::string text = gen.Steps(opts.max_depth);
  return ParseQuery(text);
}

Result<std::unique_ptr<Query>> GenerateLinearQuery(Random* rng, size_t steps,
                                                   double descendant_prob,
                                                   double wildcard_prob,
                                                   size_t name_pool) {
  std::string text;
  for (size_t i = 0; i < steps; ++i) {
    text += rng->Bernoulli(descendant_prob) ? "//" : "/";
    if (rng->Bernoulli(wildcard_prob)) {
      text += "*";
    } else {
      text += StringPrintf("s%zu", rng->Uniform(name_pool));
    }
  }
  if (text.empty()) text = "/s0";
  return ParseQuery(text);
}

std::vector<std::string> GeneratePathQueries(
    Random* rng, const std::vector<EventStream>& documents, size_t count,
    double skip, double wildcard) {
  // Every root-to-element path of the corpus, as name sequences.
  std::vector<std::vector<std::string>> paths;
  for (const EventStream& events : documents) {
    std::vector<std::string> open;
    for (const Event& event : events) {
      if (event.type == EventType::kStartElement) {
        open.emplace_back(event.name);
        paths.push_back(open);
      } else if (event.type == EventType::kEndElement && !open.empty()) {
        open.pop_back();
      }
    }
  }
  std::vector<std::string> queries;
  if (paths.empty()) return queries;
  queries.reserve(count);
  while (queries.size() < count) {
    const std::vector<std::string>& path = paths[rng->Uniform(paths.size())];
    std::string text;
    bool skipped = false;
    for (size_t i = 0; i < path.size(); ++i) {
      if (i + 1 < path.size() && rng->Bernoulli(skip)) {
        skipped = true;
        continue;
      }
      text += skipped ? "//" : "/";
      text += rng->Bernoulli(wildcard) ? "*" : path[i];
      skipped = false;
    }
    queries.push_back(std::move(text));
  }
  return queries;
}

std::string FrontierFamilyQueryText(size_t k) {
  std::string text = "/r[";
  for (size_t i = 0; i < k; ++i) {
    if (i > 0) text += " and ";
    text += StringPrintf("p%zu > %zu", i, i);
  }
  text += "]/s";
  if (k == 0) text = "/r/s";
  return text;
}

std::string RecursionFamilyQueryText() { return "//a[b and c]"; }

std::string DepthFamilyQueryText() { return "/a/b"; }

}  // namespace xpstream
