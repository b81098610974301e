#include "sim/dataset.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <string>

namespace itag::sim {

using tagging::ResourceId;
using tagging::TagId;

SyntheticWorkload GenerateDelicious(const DeliciousConfig& config) {
  assert(config.num_resources > 0);
  assert(config.vocab_size > 0);
  assert(config.min_topical_tags >= 1);
  assert(config.max_topical_tags >= config.min_topical_tags);

  SyntheticWorkload wl;
  wl.config = config;
  wl.corpus = std::make_unique<tagging::Corpus>();
  Rng rng(config.seed);

  // 1. Vocabulary: tag-<rank> interned in global popularity order, so tag id
  //    equals popularity rank.
  tagging::TagDictionary& dict = wl.corpus->dict();
  for (uint32_t t = 0; t < config.vocab_size; ++t) {
    TagId id = dict.Intern("tag-" + std::to_string(t));
    (void)id;
    assert(id == t);
  }
  ZipfSampler tag_pop(config.vocab_size, config.tag_zipf_s);

  // 2. Resources with true distributions θ_i: support drawn from the global
  //    Zipf (popular tags appear in many resources' topics), weights from a
  //    peaked Dirichlet.
  wl.truth.reserve(config.num_resources);
  for (uint32_t r = 0; r < config.num_resources; ++r) {
    wl.corpus->AddResource(tagging::ResourceKind::kWebUrl,
                           "http://example.org/r/" + std::to_string(r));
    uint32_t support =
        config.min_topical_tags +
        static_cast<uint32_t>(rng.Uniform(
            config.max_topical_tags - config.min_topical_tags + 1));
    std::set<TagId> topical;
    // Rejection-sample distinct topical tags; cap attempts for tiny vocabs.
    uint32_t attempts = 0;
    while (topical.size() < support && attempts < support * 50) {
      topical.insert(tag_pop.Sample(&rng));
      ++attempts;
    }
    while (topical.size() < std::max(1u, config.min_topical_tags)) {
      topical.insert(rng.Uniform(config.vocab_size));
    }
    std::vector<double> alpha(topical.size(), config.dirichlet_alpha);
    std::vector<double> weights;
    SampleDirichlet(alpha, &rng, &weights);
    std::vector<SparseDist::Entry> entries;
    entries.reserve(topical.size());
    size_t j = 0;
    for (TagId t : topical) {
      entries.emplace_back(t, weights[j] + 1e-9);
      ++j;
    }
    wl.truth.push_back(SparseDist::FromWeights(std::move(entries)));
  }

  // 3. Popularity: Zipf over a random permutation of resources (popularity
  //    is independent of resource id).
  std::vector<uint32_t> perm(config.num_resources);
  for (uint32_t i = 0; i < config.num_resources; ++i) perm[i] = i;
  rng.Shuffle(&perm);
  ZipfSampler res_pop(config.num_resources, config.popularity_zipf_s);
  wl.popularity.assign(config.num_resources, 0.0);
  for (uint32_t rank = 0; rank < config.num_resources; ++rank) {
    wl.popularity[perm[rank]] = res_pop.Pmf(rank);
  }

  // 4. Tagger model over the finished truth vector.
  std::vector<double> noise_weights(config.vocab_size);
  for (uint32_t t = 0; t < config.vocab_size; ++t) {
    noise_weights[t] = tag_pop.Pmf(t);
  }
  wl.tagger = std::make_unique<TaggerModel>(&wl.truth, noise_weights, &dict,
                                            config.tagger);

  // 5. Provider-era posts: scatter `initial_posts` posts by popularity
  //    (preferential attachment is implicit in the Zipf weights), generating
  //    each with the tagger model. This reproduces the paper's core premise:
  //    popular resources end up well-tagged, the long tail barely tagged.
  AliasSampler popularity_sampler(wl.popularity);
  for (uint32_t p = 0; p < config.initial_posts; ++p) {
    ResourceId r = popularity_sampler.Sample(&rng);
    GeneratedPost gp =
        wl.tagger->Generate(r, config.initial_reliability,
                            /*time=*/static_cast<Tick>(p),
                            tagging::kProviderImport, &rng);
    if (!gp.post.tags.empty()) {
      Status s = wl.corpus->AddPost(r, gp.post);
      (void)s;
      assert(s.ok());
    }
  }

  wl.initial_posts.resize(config.num_resources);
  for (ResourceId r = 0; r < config.num_resources; ++r) {
    wl.initial_posts[r] = wl.corpus->PostCount(r);
  }
  return wl;
}

}  // namespace itag::sim
