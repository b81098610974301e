#ifndef ITAG_ITAG_TABLES_H_
#define ITAG_ITAG_TABLES_H_

#include <vector>

#include "itag/ids.h"
#include "storage/database.h"

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

/// Deletes every row of `table` whose first column, `project` in each
/// per-project table (dict, resources, posts, quality_feed), holds
/// `project`. One scan, which decodes only the first column of another
/// project's row, collects the row ids first, since no table may be written
/// during its scan; a read error ends the call before any delete.
inline Status DeleteProjectRows(storage::Database* db, const char* table,
                                ProjectId project) {
  const storage::Table* t = db->GetTable(table);
  if (t == nullptr) return Status::OK();
  std::vector<storage::RowId> ids;
  ITAG_RETURN_IF_ERROR(t->ScanWhereFirst(
      storage::Value::Int(static_cast<int64_t>(project)),
      [&](storage::RowId id, const storage::Row&) {
        ids.push_back(id);
        return true;
      }));
  for (storage::RowId id : ids) ITAG_RETURN_IF_ERROR(db->Delete(table, id));
  return Status::OK();
}

}  // namespace itag::core::tables

#endif  // ITAG_ITAG_TABLES_H_
