#include "medline/corpus_generator.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/cdf_sampler.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace bionav {

namespace {

int ClampedGaussianCount(Rng* rng, double mean, double lo, double hi) {
  double v = rng->Gaussian(mean, mean / 2.5);
  v = std::max(lo, std::min(hi, v));
  return static_cast<int>(std::lround(v));
}

/// Stages `concept_id` and, probabilistically, its ancestors (excluding the
/// root) as annotations of one citation, reproducing correlated
/// multi-level annotations — the source of the duplicates the EdgeCut cost
/// model must reason about. The caller hands a citation's staged pairs to
/// the association table in one call.
void AnnotateWithWalkUp(const ConceptHierarchy& h,
                        std::vector<AssociationTable::Pair>* staged,
                        ConceptId concept_id, AssociationKind kind,
                        double walk_prob, Rng* rng) {
  staged->emplace_back(concept_id, kind);
  ConceptId u = h.parent(concept_id);
  while (u != kInvalidConcept && u != ConceptHierarchy::kRoot &&
         rng->Bernoulli(walk_prob)) {
    staged->emplace_back(u, kind);
    u = h.parent(u);
  }
}

}  // namespace

std::unique_ptr<SyntheticCorpus> GenerateCorpus(
    const ConceptHierarchy& hierarchy, const std::vector<QuerySpec>& specs,
    const CorpusGeneratorOptions& options) {
  BIONAV_CHECK(hierarchy.frozen());
  Rng rng(options.seed);

  auto corpus_ptr = std::make_unique<SyntheticCorpus>();
  SyntheticCorpus& corpus = *corpus_ptr;
  corpus.hierarchy = &hierarchy;
  corpus.associations = AssociationTable(hierarchy.size());

  const size_t n_concepts = hierarchy.size();
  BIONAV_CHECK_GT(n_concepts, 2u);

  // --- Global concept popularity: a random permutation of non-root
  // concepts with Zipf-decaying weights. Shallow concepts get a popularity
  // bonus (general MeSH terms such as "Humans" are attached to a large
  // fraction of MEDLINE).
  std::vector<ConceptId> concept_perm;
  concept_perm.reserve(n_concepts - 1);
  for (ConceptId c = 1; c < static_cast<ConceptId>(n_concepts); ++c) {
    concept_perm.push_back(c);
  }
  rng.Shuffle(&concept_perm);
  std::vector<double> global_weights(concept_perm.size());
  for (size_t rank = 0; rank < concept_perm.size(); ++rank) {
    ConceptId c = concept_perm[rank];
    double w = 1.0 / std::pow(static_cast<double>(rank + 1),
                              options.concept_zipf_s);
    int d = hierarchy.depth(c);
    if (d <= 2) w *= 6.0;
    global_weights[rank] = w;
  }
  CdfSampler global_sampler(std::move(global_weights));
  auto sample_global_concept = [&]() {
    return concept_perm[global_sampler.Sample(&rng)];
  };

  // --- Filler vocabulary, disjoint from query-keyword tokens by
  // construction ("bgterm####" never collides with biomedical keywords).
  std::vector<std::vector<std::string>> spec_tokens;
  std::unordered_set<std::string> reserved_tokens;
  for (const QuerySpec& spec : specs) {
    spec_tokens.push_back(TokenizeTerms(spec.keyword));
    reserved_tokens.insert(spec_tokens.back().begin(),
                           spec_tokens.back().end());
  }
  constexpr int kFillerVocab = 2000;
  std::vector<int32_t> filler_ids(kFillerVocab);
  for (int i = 0; i < kFillerVocab; ++i) {
    std::string term = "bgterm" + std::to_string(i);
    BIONAV_CHECK(!reserved_tokens.count(term));
    filler_ids[static_cast<size_t>(i)] = corpus.store.InternTerm(term);
  }
  std::vector<double> filler_weights(kFillerVocab);
  for (int i = 0; i < kFillerVocab; ++i) {
    filler_weights[static_cast<size_t>(i)] =
        1.0 / std::pow(static_cast<double>(i + 1), 0.9);
  }
  CdfSampler filler_sampler(std::move(filler_weights));

  // Every citation count is fixed by the specs and options, so the store
  // and the association table are sized once, exactly.
  size_t n_citations = static_cast<size_t>(options.background_citations);
  for (const QuerySpec& spec : specs) {
    n_citations += static_cast<size_t>(
        spec.result_size +
        static_cast<int>(spec.field_background_factor * spec.result_size) +
        spec.target_global_extra);
  }
  corpus.store.Reserve(n_citations);
  corpus.associations.Reserve(n_citations);

  // The pairs of the citation being generated, handed to the table at once.
  std::vector<AssociationTable::Pair> staged;
  auto associate_staged = [&](CitationId citation) {
    corpus.associations.Associate(citation, staged);
    staged.clear();
  };

  uint64_t next_pmid = 10000000;
  auto add_citation = [&](std::string title,
                          const std::vector<int32_t>& keyword_ids,
                          int n_filler) {
    Citation c;
    c.pmid = next_pmid++;
    c.title = std::move(title);
    c.year = static_cast<int>(1990 + rng.Uniform(19));
    c.term_ids.reserve(keyword_ids.size() + static_cast<size_t>(n_filler));
    c.term_ids.assign(keyword_ids.begin(), keyword_ids.end());
    for (int i = 0; i < n_filler; ++i) {
      c.term_ids.push_back(filler_ids[filler_sampler.Sample(&rng)]);
    }
    return corpus.store.Add(std::move(c));
  };

  // --- Per-query generation. Target candidates are the non-root nodes of
  // each depth, in pre-order, collected in one pass for all queries.
  std::vector<std::vector<ConceptId>> nodes_by_depth(
      static_cast<size_t>(hierarchy.height()) + 1);
  hierarchy.PreOrder([&](ConceptId id) {
    if (id != ConceptHierarchy::kRoot) {
      nodes_by_depth[static_cast<size_t>(hierarchy.depth(id))].push_back(id);
    }
  });
  for (size_t q = 0; q < specs.size(); ++q) {
    const QuerySpec& spec = specs[q];
    GeneratedQuery gq;
    gq.spec = spec;

    // Pick the target concept: a random node at the requested depth,
    // falling back to the deepest level on small hierarchies (every depth
    // up to the height has nodes).
    int want_depth = std::min(spec.target_depth, hierarchy.height());
    BIONAV_CHECK_GE(want_depth, 1)
        << "no candidate target concepts for query " << spec.name;
    const std::vector<ConceptId>& candidates =
        nodes_by_depth[static_cast<size_t>(want_depth)];
    gq.target = candidates[rng.Uniform(candidates.size())];

    // Themes: the first theme is an ancestor neighbourhood of the target so
    // the target's research line receives mass; the rest are independent
    // subtrees (the paper's "independent lines of research").
    ConceptId target_theme = gq.target;
    for (int up = 0; up < 2; ++up) {
      ConceptId p = hierarchy.parent(target_theme);
      if (p != kInvalidConcept && p != ConceptHierarchy::kRoot) {
        target_theme = p;
      }
    }
    gq.themes.push_back(target_theme);
    int attempts = 0;
    while (static_cast<int>(gq.themes.size()) < std::max(1, spec.num_themes) &&
           attempts++ < 1000) {
      ConceptId c = sample_global_concept();
      int d = hierarchy.depth(c);
      if (d < 2 || d > spec.target_depth + 2) continue;
      bool related = false;
      for (ConceptId t : gq.themes) {
        if (hierarchy.IsAncestorOrSelf(t, c) ||
            hierarchy.IsAncestorOrSelf(c, t)) {
          related = true;
          break;
        }
      }
      if (!related) gq.themes.push_back(c);
    }

    // Per-theme focus samplers over the theme subtree, biased deeper
    // (specific concepts get annotated more than their broad parents).
    std::vector<std::vector<ConceptId>> theme_nodes;
    std::vector<std::unique_ptr<CdfSampler>> theme_samplers;
    for (ConceptId t : gq.themes) {
      std::vector<ConceptId> sub = hierarchy.Subtree(t);
      std::vector<double> w(sub.size());
      for (size_t i = 0; i < sub.size(); ++i) {
        int rel_depth = hierarchy.depth(sub[i]) - hierarchy.depth(t);
        w[i] = std::pow(1.6, rel_depth);
      }
      theme_nodes.push_back(std::move(sub));
      theme_samplers.push_back(std::make_unique<CdfSampler>(std::move(w)));
    }
    std::vector<double> theme_weights(gq.themes.size());
    for (size_t i = 0; i < theme_weights.size(); ++i) {
      theme_weights[i] = 1.0 / static_cast<double>(i + 1);
    }
    CdfSampler theme_sampler(std::move(theme_weights));

    // Per-query scattered-concept pool with Zipf popularity: citations of
    // one literature share secondary topics, so noise annotations repeat
    // across the result instead of being i.i.d. over 48k concepts. This is
    // what gives component subtrees the "few duplicates across them"
    // structure the paper's Section I example describes.
    std::vector<ConceptId> pool;
    {
      size_t pool_target = static_cast<size_t>(
          std::max(8.0, spec.pool_size_factor * spec.result_size));
      std::vector<bool> seen(n_concepts, false);
      int tries = 0;
      while (pool.size() < pool_target &&
             tries++ < static_cast<int>(pool_target) * 20) {
        ConceptId c = sample_global_concept();
        if (!seen[static_cast<size_t>(c)]) {
          seen[static_cast<size_t>(c)] = true;
          pool.push_back(c);
        }
      }
    }
    std::vector<double> pool_w(pool.size());
    for (size_t i = 0; i < pool.size(); ++i) {
      pool_w[i] = 1.0 / static_cast<double>(i + 1);
    }
    CdfSampler pool_sampler(std::move(pool_w));

    // Interned once, where the query's first result citation would intern
    // them: the term dictionary assigns the same ids.
    std::vector<int32_t> keyword_ids;
    if (spec.result_size > 0) {
      for (const std::string& tok : spec_tokens[q]) {
        keyword_ids.push_back(corpus.store.InternTerm(tok));
      }
    }
    for (int i = 0; i < spec.result_size; ++i) {
      size_t ti = theme_sampler.Sample(&rng);
      CitationId cit = add_citation(
          spec.name + " study of " +
              hierarchy.label(theme_nodes[ti][theme_samplers[ti]->Sample(&rng)]),
          keyword_ids, ClampedGaussianCount(&rng, 4, 2, 8));

      int nf = ClampedGaussianCount(&rng, spec.focus_annotations_mean, 1,
                                    spec.focus_annotations_mean * 2.5);
      for (int f = 0; f < nf; ++f) {
        // Mostly the citation's main theme, sometimes a secondary one.
        size_t th = rng.Bernoulli(0.75) ? ti : theme_sampler.Sample(&rng);
        ConceptId c = theme_nodes[th][theme_samplers[th]->Sample(&rng)];
        AnnotateWithWalkUp(hierarchy, &staged, c, AssociationKind::kAnnotated,
                           options.ancestor_walk_prob, &rng);
      }
      if (rng.Bernoulli(spec.target_attach_prob)) {
        AnnotateWithWalkUp(hierarchy, &staged, gq.target,
                           AssociationKind::kAnnotated,
                           options.ancestor_walk_prob, &rng);
      }
      int nr = ClampedGaussianCount(&rng, spec.random_annotations_mean, 0,
                                    spec.random_annotations_mean * 3);
      for (int r = 0; r < nr && !pool.empty(); ++r) {
        AnnotateWithWalkUp(hierarchy, &staged, pool[pool_sampler.Sample(&rng)],
                           AssociationKind::kIndexed, 0.25, &rng);
      }
      associate_staged(cit);
      gq.result.push_back(cit);
    }

    // Field-literature background: same research communities, different
    // papers — raises |LT| of theme concepts so the query's selectivity on
    // them is realistic (a query selects a few percent of its field).
    int n_field = static_cast<int>(spec.field_background_factor *
                                   spec.result_size);
    for (int b = 0; b < n_field; ++b) {
      CitationId cit =
          add_citation("field literature (" + spec.name + ")", {},
                       ClampedGaussianCount(&rng, 4, 2, 8));
      size_t ti = theme_sampler.Sample(&rng);
      int nf = ClampedGaussianCount(&rng, 3, 1, 6);
      for (int f = 0; f < nf; ++f) {
        ConceptId c = theme_nodes[ti][theme_samplers[ti]->Sample(&rng)];
        AnnotateWithWalkUp(hierarchy, &staged, c, AssociationKind::kIndexed,
                           options.ancestor_walk_prob, &rng);
      }
      associate_staged(cit);
    }

    // The experiment's oracle navigation requires the target to appear in
    // the navigation tree, i.e. to have at least one attached citation.
    bool target_attached = false;
    for (CitationId cit : gq.result) {
      for (ConceptId c : corpus.associations.ConceptsOf(cit)) {
        if (c == gq.target) {
          target_attached = true;
          break;
        }
      }
      if (target_attached) break;
    }
    if (!target_attached && !gq.result.empty()) {
      corpus.associations.Associate(gq.result.front(), gq.target,
                                    AssociationKind::kAnnotated);
    }

    // Extra MEDLINE-wide citations on the target concept (unselective
    // targets, e.g. the paper's "Plants, Genetically Modified").
    for (int e = 0; e < spec.target_global_extra; ++e) {
      CitationId cit = add_citation("background on " +
                                        hierarchy.label(gq.target),
                                    {}, ClampedGaussianCount(&rng, 4, 2, 8));
      AnnotateWithWalkUp(hierarchy, &staged, gq.target,
                         AssociationKind::kIndexed, 0.4, &rng);
      for (int r = 0; r < 4; ++r) {
        staged.emplace_back(sample_global_concept(), AssociationKind::kIndexed);
      }
      associate_staged(cit);
    }

    corpus.queries.push_back(std::move(gq));
  }

  // --- Background corpus (the rest of MEDLINE).
  for (int b = 0; b < options.background_citations; ++b) {
    std::vector<int32_t> token_ids;
    // Occasionally reuse a single token of a multi-token keyword so the
    // index's AND semantics is exercised without polluting any result set.
    if (rng.Bernoulli(0.05) && !specs.empty()) {
      const std::vector<std::string>& ks =
          spec_tokens[rng.Uniform(specs.size())];
      if (ks.size() >= 2) {
        token_ids.push_back(
            corpus.store.InternTerm(ks[rng.Uniform(ks.size())]));
      }
    }
    CitationId cit = add_citation("background citation", token_ids,
                                  ClampedGaussianCount(&rng, 5, 3, 9));
    int na = ClampedGaussianCount(&rng, options.background_annotations_mean, 2,
                                  options.background_annotations_mean * 3);
    for (int a = 0; a < na; ++a) {
      AnnotateWithWalkUp(hierarchy, &staged, sample_global_concept(),
                         AssociationKind::kIndexed, 0.35, &rng);
    }
    associate_staged(cit);
  }

  corpus.index = std::make_unique<InvertedIndex>(corpus.store);

  // Every generated result set must round-trip through ESearch exactly.
  for (const GeneratedQuery& gq : corpus.queries) {
    std::vector<CitationId> found = corpus.index->Search(gq.spec.keyword);
    std::vector<CitationId> expected = gq.result;
    std::sort(expected.begin(), expected.end());
    BIONAV_CHECK(found == expected)
        << "ESearch mismatch for query " << gq.spec.name << ": " << found.size()
        << " vs " << expected.size();
  }
  return corpus_ptr;
}

}  // namespace bionav
