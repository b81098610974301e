#ifndef ITAG_TAGGING_POST_H_
#define ITAG_TAGGING_POST_H_

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "tagging/tag_dictionary.h"

namespace itag::tagging {

/// Identifier of a tagger (worker) in the user model.
using TaggerId = uint32_t;

/// Sentinel tagger for posts imported from a provider's historical data.
inline constexpr TaggerId kProviderImport = 0xFFFFFFFFu;

/// A post: a nonempty set of tags assigned to one resource by one tagger in
/// one tagging operation (the paper's Definition in §II). Tags within a post
/// are unique (a tagger cannot repeat a tag in one operation).
struct Post {
  TaggerId tagger = kProviderImport;
  Tick time = 0;
  std::vector<TagId> tags;  ///< unique, nonempty for a well-formed post
};

}  // namespace itag::tagging

#endif  // ITAG_TAGGING_POST_H_
