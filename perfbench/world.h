// The benchmark's reference world: a durable paged (or in-memory)
// ShardedSystem behind api::Service, optionally served by an in-process
// net::Server on loopback. Every world built from the same seed holds the
// same state, so the traced run can step several of them in lockstep.
#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/service.h"
#include "common/random.h"
#include "common/status.h"
#include "itag/sharded_system.h"
#include "net/server.h"

namespace perfbench {

// Shape of the reference world, shared by every workload.
inline constexpr uint32_t kProjects = 64;
inline constexpr uint32_t kResourcesPerProject = 128;
inline constexpr uint32_t kInitialTags = 3;
inline constexpr uint32_t kVocabulary = 2000;
inline constexpr double kTagZipf = 1.05;
inline constexpr double kProjectZipf = 1.1;
inline constexpr uint32_t kProviders = 4;
inline constexpr uint32_t kTaggers = 32;
inline constexpr uint32_t kPayCents = 5;
// Far above QualityManager::ProjectedGain's 5000-task planning cap, so the
// cost of a read does not drift as budgets drain.
inline constexpr uint32_t kBudgetTasks = 4u << 20;
inline constexpr uint32_t kUploadBatch = 32;
inline constexpr uint32_t kSeedCycles = 2;     // tagging cycles per project
inline constexpr uint32_t kSeedCycleTasks = 4;

// Thread budget, kept small so that runs on a 4-vCPU host stay comparable:
// 4 shards on a 2-thread pool; one reactor and two dispatch workers on the
// server.
inline constexpr size_t kShards = 4;
inline constexpr size_t kPoolThreads = 2;
inline constexpr size_t kReactors = 1;
inline constexpr size_t kWorkers = 2;

// The Zipf(1.05) tag vocabulary, as texts.
const std::vector<std::string>& Vocabulary();
// Draws one vocabulary tag.
const std::string& DrawTag(itag::Rng* rng);

struct WorldIds {
  std::vector<itag::core::ProviderId> providers;
  std::vector<itag::core::UserTaggerId> taggers;
  std::vector<itag::core::ProjectId> projects;  // global ids
  std::vector<uint32_t> owner;                  // provider index per project
};

class World {
 public:
  // `dir` empty builds an in-memory world; otherwise paged shards under it.
  World(const std::string& dir, size_t page_cache_mb);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // Registers users, creates the projects, bulk-uploads their resources,
  // starts them, runs a few tagging cycles each and checkpoints. Adds the
  // user payload bytes it sent to *user_bytes.
  itag::Status Build(uint64_t seed, uint64_t* user_bytes);

  itag::Status StartServer();
  void StopServer();
  uint16_t port() const { return server_ ? server_->port() : 0; }

  itag::core::ShardedSystem& sharded() { return *sharded_; }
  itag::api::Service& service() { return *service_; }
  const WorldIds& ids() const { return ids_; }

  // Options of this world's ShardedSystem, to reopen its directory.
  static itag::core::ShardedSystemOptions Options(const std::string& dir,
                                                  size_t page_cache_mb);

 private:
  std::unique_ptr<itag::core::ShardedSystem> sharded_;
  std::unique_ptr<itag::api::Service> service_;
  std::unique_ptr<itag::net::Server> server_;
  WorldIds ids_;
};

// Every project's ProjectQuery response (with feed), wire-encoded: the
// byte-equality oracle for recovery and read invariance.
std::vector<std::string> EncodedProjectPayloads(itag::api::Service& service,
                                                const WorldIds& ids);

// Sum of file sizes under `dir` whose name equals `name` (all names when
// empty).
uint64_t BytesUnder(const std::string& dir, const std::string& name = "");

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
