#include "world.h"

#include <filesystem>
#include <utility>

#include "net/wire.h"

namespace perfbench {

namespace api = itag::api;
namespace core = itag::core;
using itag::Status;

const std::vector<std::string>& Vocabulary() {
  static const std::vector<std::string> vocab = [] {
    std::vector<std::string> v;
    v.reserve(kVocabulary);
    for (uint32_t i = 0; i < kVocabulary; ++i) {
      v.push_back("tag" + std::to_string(i));
    }
    return v;
  }();
  return vocab;
}

const std::string& DrawTag(itag::Rng* rng) {
  static const itag::ZipfSampler zipf(kVocabulary, kTagZipf);
  return Vocabulary()[zipf.Sample(rng)];
}

World::World(const std::string& dir, size_t page_cache_mb)
    : sharded_(std::make_unique<core::ShardedSystem>(
          Options(dir, page_cache_mb))),
      service_(std::make_unique<api::Service>(sharded_.get())) {}

World::~World() { StopServer(); }

core::ShardedSystemOptions World::Options(const std::string& dir,
                                          size_t page_cache_mb) {
  core::ShardedSystemOptions o;
  o.num_shards = kShards;
  o.pool_threads = kPoolThreads;
  o.shard.db.directory = dir;
  o.shard.db.paged = true;
  o.shard.db.page_cache_mb = page_cache_mb;
  return o;
}

namespace {

Status FirstError(const api::BatchOutcome& outcome) {
  for (const Status& s : outcome.statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace

Status World::Build(uint64_t seed, uint64_t* user_bytes) {
  Status init = sharded_->Init();
  if (!init.ok()) return init;
  api::Service& svc = *service_;
  itag::Rng rng(seed, 0x5e70);
  uint64_t bytes = 0;

  for (uint32_t k = 0; k < kProviders; ++k) {
    api::RegisterProviderRequest req{"provider-" + std::to_string(k)};
    bytes += req.name.size();
    api::RegisterProviderResponse r = svc.RegisterProvider(req);
    if (!r.status.ok()) return r.status;
    ids_.providers.push_back(r.provider);
  }
  for (uint32_t k = 0; k < kTaggers; ++k) {
    api::RegisterTaggerRequest req{"tagger-" + std::to_string(k)};
    bytes += req.name.size();
    api::RegisterTaggerResponse r = svc.RegisterTagger(req);
    if (!r.status.ok()) return r.status;
    ids_.taggers.push_back(r.tagger);
  }

  for (uint32_t p = 0; p < kProjects; ++p) {
    api::CreateProjectRequest create;
    create.provider = ids_.providers[p % kProviders];
    create.spec.name = "project-" + std::to_string(p);
    create.spec.description = "catalogue " + std::to_string(p);
    create.spec.budget = kBudgetTasks;
    create.spec.pay_cents = kPayCents;
    create.spec.platform = core::PlatformChoice::kAudience;
    bytes += create.spec.name.size() + create.spec.description.size();
    api::CreateProjectResponse created = svc.CreateProject(create);
    if (!created.status.ok()) return created.status;
    ids_.projects.push_back(created.project);
    ids_.owner.push_back(p % kProviders);

    for (uint32_t r0 = 0; r0 < kResourcesPerProject; r0 += kUploadBatch) {
      api::BatchUploadResourcesRequest up;
      up.project = created.project;
      for (uint32_t r = r0; r < r0 + kUploadBatch; ++r) {
        api::UploadResourceItem item;
        item.uri = "https://catalog.example/" + std::to_string(seed) + "/" +
                   std::to_string(p) + "/" + std::to_string(r);
        item.description = "resource " + std::to_string(r) + " of project " +
                           std::to_string(p);
        for (uint32_t t = 0; t < kInitialTags; ++t) {
          item.initial_tags.push_back(DrawTag(&rng));
          bytes += item.initial_tags.back().size();
        }
        bytes += item.uri.size() + item.description.size();
        up.items.push_back(std::move(item));
      }
      Status s = FirstError(svc.BatchUploadResources(up).outcome);
      if (!s.ok()) return s;
    }
    api::BatchControlRequest start;
    start.project = created.project;
    start.items.push_back({api::ControlAction::kStart, 0, 0, {}});
    Status s = FirstError(svc.BatchControl(start).outcome);
    if (!s.ok()) return s;
  }

  // A few audience tagging cycles per project, so feeds, posts and the
  // ledger are not empty when the workloads start.
  for (uint32_t p = 0; p < kProjects; ++p) {
    for (uint32_t c = 0; c < kSeedCycles; ++c) {
      const core::UserTaggerId tagger = ids_.taggers[(p + c) % kTaggers];
      api::BatchAcceptTasksResponse acc =
          svc.BatchAcceptTasks({tagger, ids_.projects[p], kSeedCycleTasks});
      if (!acc.status.ok()) return acc.status;
      api::BatchSubmitTagsRequest sub;
      api::BatchDecideRequest dec;
      dec.provider = ids_.providers[ids_.owner[p]];
      for (const core::AcceptedTask& task : acc.tasks) {
        api::SubmitTagsItem item{tagger, task.handle,
                                 {DrawTag(&rng), DrawTag(&rng)}};
        for (const std::string& t : item.tags) bytes += t.size();
        sub.items.push_back(std::move(item));
        dec.items.push_back({task.handle, true});
      }
      Status s = FirstError(svc.BatchSubmitTags(sub).outcome);
      if (!s.ok()) return s;
      s = FirstError(svc.BatchDecide(dec).outcome);
      if (!s.ok()) return s;
    }
  }

  api::CheckpointResponse cp = svc.Checkpoint({});
  if (!cp.status.ok()) return cp.status;
  *user_bytes += bytes;
  return Status::OK();
}

Status World::StartServer() {
  itag::net::ServerOptions opts;
  opts.reactors = kReactors;
  opts.workers = kWorkers;
  server_ = std::make_unique<itag::net::Server>(service_.get(), opts);
  return server_->Start();
}

void World::StopServer() {
  if (server_ == nullptr) return;
  server_->Stop();
  server_.reset();
}

std::vector<std::string> EncodedProjectPayloads(api::Service& service,
                                                const WorldIds& ids) {
  std::vector<std::string> out;
  out.reserve(ids.projects.size());
  for (core::ProjectId project : ids.projects) {
    api::ProjectQueryRequest req;
    req.project = project;
    req.include_feed = true;
    out.push_back(itag::net::EncodeResponsePayload(
        api::AnyResponse(service.ProjectQuery(req))));
  }
  return out;
}

uint64_t BytesUnder(const std::string& dir, const std::string& name) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (!name.empty() && it->path().filename() != name) continue;
    total += it->file_size(ec);
  }
  return total;
}

}  // namespace perfbench
