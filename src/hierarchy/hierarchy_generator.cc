#include "hierarchy/hierarchy_generator.h"

#include <array>
#include <string>
#include <vector>

#include "util/cdf_sampler.h"
#include "util/rng.h"

namespace bionav {

namespace {

// The 16 MeSH 2008 top-level categories, used as flavor labels for the
// synthetic hierarchy's first level.
constexpr std::array<const char*, 16> kMeshCategories = {
    "Anatomy",
    "Organisms",
    "Diseases",
    "Chemicals and Drugs",
    "Analytical, Diagnostic and Therapeutic Techniques and Equipment",
    "Psychiatry and Psychology",
    "Biological Sciences",
    "Natural Sciences",
    "Anthropology, Education, Sociology and Social Phenomena",
    "Technology, Industry, Agriculture",
    "Humanities",
    "Information Science",
    "Named Groups",
    "Health Care",
    "Publication Characteristics",
    "Geographicals",
};

constexpr std::array<const char*, 24> kStems = {
    "Proteins",    "Neoplasms",   "Cells",       "Genes",      "Receptors",
    "Acids",       "Membranes",   "Kinases",     "Hormones",   "Syndromes",
    "Therapies",   "Viruses",     "Tissues",     "Enzymes",    "Transport",
    "Factors",     "Pathways",    "Disorders",   "Inhibitors", "Antigens",
    "Processes",   "Phenomena",   "Techniques",  "Models",
};

constexpr std::array<const char*, 20> kModifiers = {
    "Nuclear",    "Cellular",     "Genetic",     "Metabolic", "Immune",
    "Vascular",   "Neural",       "Epithelial",  "Hepatic",   "Cardiac",
    "Renal",      "Pulmonary",    "Endocrine",   "Synaptic",  "Mitochondrial",
    "Cytoplasmic", "Ribosomal",   "Lymphoid",    "Dermal",    "Skeletal",
};

std::string MakeLabel(Rng* rng, int depth, int serial) {
  std::string label;
  label += kModifiers[rng->Uniform(kModifiers.size())];
  label += ' ';
  label += kStems[rng->Uniform(kStems.size())];
  if (depth >= 3) {
    label += " Type ";
    label += std::to_string(serial % 997);
  }
  return label;
}

}  // namespace

ConceptHierarchy GenerateMeshLikeHierarchy(
    const HierarchyGeneratorOptions& options) {
  BIONAV_CHECK_GE(options.num_categories, 1);
  BIONAV_CHECK_GE(options.target_nodes, options.num_categories + 1);
  BIONAV_CHECK_GE(options.max_depth, 2);

  Rng rng(options.seed);
  ConceptHierarchy h;
  h.Reserve(static_cast<size_t>(options.target_nodes));

  // Depth-1 categories.
  std::vector<std::vector<ConceptId>> by_depth(
      static_cast<size_t>(options.max_depth) + 1);
  for (int c = 0; c < options.num_categories; ++c) {
    std::string label = c < static_cast<int>(kMeshCategories.size())
                            ? kMeshCategories[static_cast<size_t>(c)]
                            : "Category " + std::to_string(c + 1);
    ConceptId id = h.AddNode(ConceptHierarchy::kRoot, std::move(label));
    by_depth[1].push_back(id);
  }

  // Parent-depth mixture calibrated to MeSH's node-depth histogram: most
  // descriptors sit at depths 4-6, the top is bushy, and the tree thins out
  // to depth ~11. Index = parent depth (child lands one deeper).
  std::vector<double> parent_depth_weight(
      static_cast<size_t>(options.max_depth), 0.0);
  const double base[] = {0.0, 1.6, 7.0, 18.0, 27.0, 25.0,
                         16.0, 9.0,  4.5, 1.6,  0.45};
  for (size_t d = 1; d < parent_depth_weight.size(); ++d) {
    parent_depth_weight[d] =
        d < std::size(base) ? base[d] : base[std::size(base) - 1] * 0.5;
  }
  // Draws exactly what Rng::WeightedIndex draws over the same weights,
  // without re-summing them for every node.
  const CdfSampler parent_depth_sampler(std::move(parent_depth_weight));

  // Preferential-attachment pools: a node appears once when created and once
  // more per child it receives, so popular parents grow bushier (real MeSH
  // has heavy-fanout hubs such as "Amino Acids, Peptides, and Proteins").
  std::vector<std::vector<ConceptId>> pa_pool(
      static_cast<size_t>(options.max_depth) + 1);
  for (ConceptId id : by_depth[1]) pa_pool[1].push_back(id);

  int serial = 0;
  while (static_cast<int>(h.size()) < options.target_nodes) {
    // Pick a parent depth, falling back to shallower populated depths.
    size_t d = parent_depth_sampler.Sample(&rng);
    while (d >= 1 && by_depth[d].empty()) --d;
    if (d < 1) d = 1;
    BIONAV_CHECK(!by_depth[d].empty());

    ConceptId parent;
    if (rng.Bernoulli(0.35) && !pa_pool[d].empty()) {
      parent = pa_pool[d][rng.Uniform(pa_pool[d].size())];
    } else {
      parent = by_depth[d][rng.Uniform(by_depth[d].size())];
    }

    int child_depth = static_cast<int>(d) + 1;
    ConceptId id = h.AddNode(parent, MakeLabel(&rng, child_depth, serial++));
    by_depth[static_cast<size_t>(child_depth)].push_back(id);
    pa_pool[static_cast<size_t>(child_depth)].push_back(id);
    pa_pool[d].push_back(parent);
  }

  h.Freeze();
  return h;
}

}  // namespace bionav
