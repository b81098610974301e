#ifndef ITAG_ITAG_TABLES_H_
#define ITAG_ITAG_TABLES_H_

namespace itag::core::tables {

// The storage-engine catalog of the iTag layer (the "MySQL schema" of the
// paper's Fig. 2), collected in one place because recovery crosses manager
// boundaries: the Resource Manager replays the Tag Manager's post log to
// rebuild corpora, the facade reads the Quality Manager's project rows to
// re-derive id counters, and so on.
//
// Ownership (who writes / who else reads), with the unique key of each
// keyed table. A keyed row is found through that key's unique index
// (Database::Upsert, Table::LookupUnique); no manager keeps a copy of it.
//   providers (id), taggers (id)   UserManager
//   resources, dict                ResourceManager (dict also written
//                                  through the TagDictionary new-tag hook
//                                  by any interner)
//   posts                          TagManager (+ ResourceManager: imports,
//                                  replay)
//   projects (id), quality_feed,
//   notifications                  QualityManager
//   tasks (handle), in_flight,
//   sys (k)                        ITagSystem facade
inline constexpr char kProviders[] = "providers";
inline constexpr char kTaggers[] = "taggers";
inline constexpr char kResources[] = "resources";
inline constexpr char kDict[] = "dict";
inline constexpr char kPosts[] = "posts";
inline constexpr char kProjects[] = "projects";
inline constexpr char kQualityFeed[] = "quality_feed";
inline constexpr char kNotifications[] = "notifications";
/// One row per open audience task, from its acceptance until its decision.
inline constexpr char kTasks[] = "tasks";
inline constexpr char kInFlight[] = "in_flight";
/// Singleton key/value rows: clock, RNG streams, id counters, platform
/// simulator blobs, payment totals.
inline constexpr char kSys[] = "sys";

}  // namespace itag::core::tables

#endif  // ITAG_ITAG_TABLES_H_
