// Recovery of the Resource Manager's corpora from the dict, resources and
// posts tables:
//  - the restore checks: a dict id that skips, a resource id out of upload
//    order and a malformed post tags blob each fail recovery with
//    Corruption naming the project, on every storage mode;
//  - rows of a project id with no `projects` row are never read;
//  - an oracle: projects whose rows interleave on one shard (one of them
//    erased) recover to exactly the corpora a per-project walk of the rows
//    builds, after an in-memory Reattach, a snapshot reopen and a paged
//    reopen;
//  - migration's two readers of those rows, which scan the tables: for
//    interleaved projects on every storage mode, ExtractCorpus returns
//    what it returned when the corpus kept every post, and EraseProject
//    deletes exactly the project's rows.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "itag/itag_system.h"
#include "itag/tables.h"
#include "storage/database.h"
#include "storage/pager/paged_engine.h"

namespace itag::core {
namespace {

namespace fs = std::filesystem;

using storage::Row;
using storage::Value;
using tagging::ResourceKind;

enum class Mode { kInMemory, kSnapshot, kPaged };

std::string ModeName(Mode mode) {
  switch (mode) {
    case Mode::kInMemory:
      return "InMemory";
    case Mode::kSnapshot:
      return "Snapshot";
    case Mode::kPaged:
      return "Paged";
  }
  return "";
}

ITagSystemOptions OptionsFor(Mode mode, const std::string& dir) {
  ITagSystemOptions opts;
  if (mode == Mode::kInMemory) return opts;
  opts.db.directory = dir;
  if (mode == Mode::kPaged) {
    // Tiny pages and a one-frame cache: the tables span many leaves, so a
    // restore walks splits and evictions, not one resident page.
    opts.db.paged = true;
    opts.db.page_size = 512;
    opts.db.page_cache_mb = 0;
  }
  return opts;
}

ProjectSpec AudienceSpec(const std::string& name) {
  ProjectSpec spec;
  spec.name = name;
  spec.budget = 400;
  spec.pay_cents = 3;
  spec.platform = PlatformChoice::kAudience;
  spec.strategy = strategy::StrategyKind::kFewestPostsFirst;
  return spec;
}

Row DictRow(ProjectId project, int64_t tag, const std::string& text) {
  return {Value::Int(static_cast<int64_t>(project)), Value::Int(tag),
          Value::Str(text)};
}

Row ResourceRow(ProjectId project, int64_t resource, const std::string& uri) {
  return {Value::Int(static_cast<int64_t>(project)), Value::Int(resource),
          Value::Str(tagging::ResourceKindName(ResourceKind::kWebUrl)),
          Value::Str(uri), Value::Str("")};
}

Row PostRow(ProjectId project, int64_t resource, const std::string& tags) {
  return {Value::Int(static_cast<int64_t>(project)), Value::Int(resource),
          Value::Int(1), Value::Int(0), Value::Str(tags)};
}

/// The rows of `table` that belong to `project`, in row-id order.
Result<std::vector<Row>> ProjectRows(const storage::Database& db,
                                     const char* table, ProjectId project) {
  const storage::Table* t = db.GetTable(table);
  std::vector<storage::RowId> ids;
  ITAG_RETURN_IF_ERROR(t->Scan([&](storage::RowId id, const Row& row) {
    if (row[0] == Value::Int(static_cast<int64_t>(project))) ids.push_back(id);
    return true;
  }));
  std::vector<Row> rows;
  for (storage::RowId id : ids) {
    ITAG_ASSIGN_OR_RETURN(Row row, t->Get(id));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// The per-project restore recovery used before corpora were read with one
/// scan per table for all projects, kept as the reference: for one
/// project, the row ids of each table's rows of that project, then one Get
/// per row id, folding the dict rows, the resource rows and the post log
/// into a fresh corpus.
Result<std::unique_ptr<tagging::Corpus>> ReferenceCorpus(
    const storage::Database& db, ProjectId project) {
  auto corpus = std::make_unique<tagging::Corpus>();

  ITAG_ASSIGN_OR_RETURN(std::vector<Row> dict,
                        ProjectRows(db, tables::kDict, project));
  for (const Row& row : dict) {
    tagging::TagId want = static_cast<tagging::TagId>(row[1].as_int());
    tagging::TagId got = corpus->dict().Intern(row[2].as_string());
    if (got != want) {
      return Status::Corruption("dict replay diverged for project " +
                                std::to_string(project));
    }
  }

  ITAG_ASSIGN_OR_RETURN(std::vector<Row> resources,
                        ProjectRows(db, tables::kResources, project));
  for (const Row& row : resources) {
    tagging::ResourceId want =
        static_cast<tagging::ResourceId>(row[1].as_int());
    tagging::ResourceId got =
        corpus->AddResource(tagging::ParseResourceKind(row[2].as_string()),
                            row[3].as_string(), row[4].as_string());
    if (got != want) {
      return Status::Corruption("resource replay diverged for project " +
                                std::to_string(project));
    }
  }

  ITAG_ASSIGN_OR_RETURN(std::vector<Row> posts,
                        ProjectRows(db, tables::kPosts, project));
  for (const Row& row : posts) {
    tagging::Post post;
    post.tagger = static_cast<tagging::TaggerId>(row[2].as_int());
    post.time = row[3].as_int();
    ByteReader r(row[4].as_string());
    std::vector<std::string> texts;
    if (!r.StrVec(&texts) || !r.AtEnd()) {
      return Status::Corruption("malformed post tags for project " +
                                std::to_string(project));
    }
    for (const std::string& text : texts) {
      post.tags.push_back(corpus->dict().Intern(text));
    }
    ITAG_RETURN_IF_ERROR(corpus->AddPost(
        static_cast<tagging::ResourceId>(row[1].as_int()), post));
  }
  return corpus;
}

/// Everything a corpus holds, in a diffable form: dict texts by id, each
/// resource with its statistics (post and tag counts, every (tag, count),
/// the rfd history the stability metric reads), then the project's post
/// log as `db` holds it: each `posts` row's resource, tagger, time and tag
/// texts, in row order.
std::string Dump(const tagging::Corpus& corpus, const storage::Database& db,
                 ProjectId project) {
  std::ostringstream out;
  out.precision(17);
  for (tagging::TagId t = 0; t < corpus.dict().size(); ++t) {
    out << "tag " << t << " " << corpus.dict().Text(t) << "\n";
  }
  for (tagging::ResourceId r = 0; r < corpus.size(); ++r) {
    const tagging::Resource& res = corpus.resource(r);
    const tagging::TagStats& stats = corpus.stats(r);
    out << "resource " << r << " " << tagging::ResourceKindName(res.kind)
        << " " << res.uri << " " << res.description << ": "
        << stats.post_count() << " posts, " << stats.tag_occurrences()
        << " tags:";
    for (const auto& [tag, count] : stats.TopTags(stats.distinct_tags())) {
      out << " " << tag << "x" << count;
    }
    out << "\n";
    for (size_t back = 0; back <= stats.history_window(); ++back) {
      const SparseDist rfd = stats.RfdBefore(back);
      out << "  rfd -" << back << ":";
      for (const auto& [tag, p] : rfd.entries()) out << " " << tag << "=" << p;
      out << "\n";
    }
  }
  Result<std::vector<Row>> posts = ProjectRows(db, tables::kPosts, project);
  EXPECT_TRUE(posts.ok()) << posts.status().ToString();
  for (const Row& row : posts.value_or({})) {
    out << "post " << row[1].as_int() << " " << row[2].as_int() << " "
        << row[3].as_int() << ":";
    ByteReader in(row[4].as_string());
    std::vector<std::string> texts;
    EXPECT_TRUE(in.StrVec(&texts) && in.AtEnd());
    for (const std::string& text : texts) out << " " << text;
    out << "\n";
  }
  return out.str();
}

class ScratchDir {
 public:
  ScratchDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name =
        std::string(info->test_suite_name()) + "_" + info->name();
    for (char& ch : name) {
      if (ch == '/') ch = '_';
    }
    path_ = (fs::temp_directory_path() /
             ("itag_corpus_restore_" + name + "_" +
              std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ------------------------------------------------------- restore checks

/// One project with two resources and one imported post (tags "alpha" and
/// "beta", ids 0 and 1), then crafted rows written straight through
/// storage::Database, then recovery: Reattach on the in-memory system,
/// a fresh Init on a durable directory.
class RestoreChecksTest : public ::testing::TestWithParam<Mode> {
 protected:
  void SetUp() override {
    opts_ = OptionsFor(GetParam(), dir_.path());
    system_ = std::make_unique<ITagSystem>(opts_);
    ASSERT_TRUE(system_->Init().ok());
    ProviderId provider = system_->RegisterProvider("prov").value();
    project_ = system_->CreateProject(provider, AudienceSpec("p")).value();
    std::vector<tagging::ResourceId> ids;
    for (const Status& s : system_->UploadResourceBatch(
             project_,
             {{ResourceKind::kWebUrl, "u0", "", {"alpha", "beta"}},
              {ResourceKind::kWebUrl, "u1", "", {}}},
             &ids)) {
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    before_ = Dump(*system_->resource_manager().GetCorpus(project_),
                   system_->database(), project_);
    if (GetParam() != Mode::kInMemory) system_.reset();
  }

  /// Writes `rows` and recovers; returns the recovery's status. On OK the
  /// recovered system is in system_.
  Status RecoverWith(const std::vector<std::pair<const char*, Row>>& rows) {
    if (GetParam() == Mode::kInMemory) {
      for (const auto& [table, row] : rows) {
        Result<storage::RowId> rid = system_->database().Insert(table, row);
        EXPECT_TRUE(rid.ok()) << rid.status().ToString();
      }
      return system_->Reattach();
    }
    {
      storage::Database db;
      EXPECT_TRUE(db.Open(opts_.db).ok());
      for (const auto& [table, row] : rows) {
        Result<storage::RowId> rid = db.Insert(table, row);
        EXPECT_TRUE(rid.ok()) << rid.status().ToString();
      }
    }
    system_ = std::make_unique<ITagSystem>(opts_);
    return system_->Init();
  }

  void ExpectCorruptionNamingProject(const Status& s) {
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.message().find("project " + std::to_string(project_)),
              std::string::npos)
        << s.ToString();
  }

  ScratchDir dir_;
  ITagSystemOptions opts_;
  std::unique_ptr<ITagSystem> system_;
  ProjectId project_ = 0;
  std::string before_;
};

TEST_P(RestoreChecksTest, DictIdThatSkipsIsCorruption) {
  // The next intern hands out id 2; the row claims 5.
  ExpectCorruptionNamingProject(
      RecoverWith({{tables::kDict, DictRow(project_, 5, "gamma")}}));
}

TEST_P(RestoreChecksTest, ResourceIdOutOfUploadOrderIsCorruption) {
  // The next upload is resource 2; the row claims 7.
  ExpectCorruptionNamingProject(
      RecoverWith({{tables::kResources, ResourceRow(project_, 7, "u7")}}));
}

TEST_P(RestoreChecksTest, MalformedPostTagsBlobIsCorruption) {
  // A string list that claims more bytes than it carries.
  const std::string blob("\x09\0\0\0ab", 6);
  ExpectCorruptionNamingProject(
      RecoverWith({{tables::kPosts, PostRow(project_, 0, blob)}}));
}

TEST_P(RestoreChecksTest, OrphanRowsOfAnUnknownProjectAreIgnored) {
  // Were they read, each of the first three rows would fail a restore
  // check, and the last would give the orphan id a corpus.
  const ProjectId orphan = project_ + 1000;
  Status s = RecoverWith(
      {{tables::kDict, DictRow(orphan, 9, "ghost")},
       {tables::kResources, ResourceRow(orphan, 4, "ghost-uri")},
       {tables::kPosts, PostRow(orphan, 6, "not a string list")},
       {tables::kDict, DictRow(orphan, 0, "ghost-2")}});
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(system_->resource_manager().GetCorpus(orphan), nullptr);
  EXPECT_TRUE(system_->GetProjectInfo(orphan).status().IsNotFound());
  const tagging::Corpus* corpus =
      system_->resource_manager().GetCorpus(project_);
  ASSERT_NE(corpus, nullptr);
  EXPECT_EQ(Dump(*corpus, system_->database(), project_), before_);
}

INSTANTIATE_TEST_SUITE_P(AllModes, RestoreChecksTest,
                         ::testing::Values(Mode::kInMemory, Mode::kSnapshot,
                                           Mode::kPaged),
                         [](const ::testing::TestParamInfo<Mode>& info) {
                           return ModeName(info.param);
                         });

// ------------------------------------------------------- undecodable rows

/// Every table recovery reads is read whole. A paged heap's scan ends at a
/// stored row that does not decode and reports it; recovery must fail with
/// that Corruption rather than carry on with the table's later rows gone.
/// A table with a unique index already failed in its index build, which
/// scans first; in_flight, notifications and quality_feed have none, so
/// only the restore's own scan can see their rows.
class UndecodableRowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    opts_ = OptionsFor(Mode::kPaged, dir_.path());
    ITagSystem s(opts_);
    ASSERT_TRUE(s.Init().ok());
    ProviderId provider = s.RegisterProvider("prov").value();
    UserTaggerId tagger = s.RegisterTagger("tagger").value();
    ASSERT_TRUE(s.RegisterTagger("second").ok());
    ProjectId p = s.CreateProject(provider, AudienceSpec("p")).value();
    tagger_ = tagger;
    project_ = p;
    std::vector<tagging::ResourceId> ids;
    for (const Status& st : s.UploadResourceBatch(
             p,
             {{ResourceKind::kWebUrl, "u0", "", {"alpha"}},
              {ResourceKind::kWebUrl, "u1", "", {}}},
             &ids)) {
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    ASSERT_TRUE(s.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
    for (int round = 0; round < 2; ++round) {
      std::vector<AcceptedTask> tasks = s.AcceptTasks(tagger, p, 1).value();
      ASSERT_EQ(tasks.size(), 1u);
      for (const Status& st :
           s.SubmitTagsBatch({{tagger, tasks[0].handle, {"beta"}}})) {
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
      for (const Status& st : s.DecideBatch(provider, {{tasks[0].handle, true}})) {
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
    }
    // A crowd project with tasks posted and not yet completed leaves
    // in_flight rows.
    ProjectSpec crowd = AudienceSpec("crowd");
    crowd.platform = PlatformChoice::kMTurk;
    ProjectId c = s.CreateProject(provider, crowd).value();
    for (const Status& st : s.UploadResourceBatch(
             c,
             {{ResourceKind::kWebUrl, "c0", "", {}},
              {ResourceKind::kWebUrl, "c1", "", {}},
              {ResourceKind::kWebUrl, "c2", "", {}}},
             &ids)) {
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    ASSERT_TRUE(s.ControlBatch(c, {{ControlAction::kStart}})[0].ok());
    ASSERT_TRUE(s.Step(1).ok());
    ASSERT_TRUE(s.Checkpoint().ok());
  }

  /// Overwrites the first stored row of `table` with bytes that are no row,
  /// checkpoints, and recovers a fresh system from the directory.
  Status RecoverWithFirstRowOf(const char* table) {
    {
      storage::Database db;
      EXPECT_TRUE(db.Open(opts_.db).ok());
      storage::RowId first = 0;
      size_t rows = 0;
      EXPECT_TRUE(db.GetTable(table)
                      ->Scan([&](storage::RowId id, const Row&) {
                        if (rows++ == 0) first = id;
                        return true;
                      })
                      .ok());
      EXPECT_GE(rows, 2u) << table << " needs a row after the broken one";
      EXPECT_TRUE(
          db.engine()->GetTable(table)->tree->Put(first, "\xff\xff").ok());
      EXPECT_TRUE(db.Checkpoint().ok());
    }
    ITagSystem recovered(opts_);
    return recovered.Init();
  }

  ScratchDir dir_;
  ITagSystemOptions opts_;
  UserTaggerId tagger_ = 0;
  ProjectId project_ = 0;
};

TEST_F(UndecodableRowTest, TaggersRowFailsInit) {
  Status s = RecoverWithFirstRowOf(tables::kTaggers);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(UndecodableRowTest, SysRowFailsInit) {
  Status s = RecoverWithFirstRowOf(tables::kSys);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(UndecodableRowTest, QualityFeedRowFailsInit) {
  Status s = RecoverWithFirstRowOf(tables::kQualityFeed);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(UndecodableRowTest, NotificationsRowFailsInit) {
  Status s = RecoverWithFirstRowOf(tables::kNotifications);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(UndecodableRowTest, InFlightRowFailsInit) {
  Status s = RecoverWithFirstRowOf(tables::kInFlight);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// A `tasks` row that decodes as a row but whose tags blob does not: the
// restore fails with Corruption naming the task's handle instead of
// recovering the task with no tags, which would reopen it for a submit.
TEST_F(UndecodableRowTest, TasksRowWithUndecodableTagsFailsInit) {
  TaskHandle submitted = 0;
  {
    ITagSystem s(opts_);
    ASSERT_TRUE(s.Init().ok());
    std::vector<AcceptedTask> tasks =
        s.AcceptTasks(tagger_, project_, 2).value();
    ASSERT_EQ(tasks.size(), 2u);
    submitted = tasks[1].handle;
    ASSERT_TRUE(s.SubmitTagsBatch({{tagger_, submitted, {"gamma"}}})[0].ok());
  }
  {
    storage::Database db;
    ASSERT_TRUE(db.Open(opts_.db).ok());
    ASSERT_TRUE(db.AddUniqueIndex(tables::kTasks, "handle").ok());
    Result<storage::RowId> rid = db.GetTable(tables::kTasks)->LookupUnique(
        "handle", Value::Int(static_cast<int64_t>(submitted)));
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    Row row = db.GetTable(tables::kTasks)->Get(rid.value()).value();
    row.back() = Value::Str("\x01");  // a count, cut off after one byte
    ASSERT_TRUE(db.Update(tables::kTasks, rid.value(), row).ok());
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  ITagSystem recovered(opts_);
  Status s = recovered.Init();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("task " + std::to_string(submitted)),
            std::string::npos)
      << s.ToString();
}

// ------------------------------------------------------- restore oracle

/// Accepts three tasks of project `p`, submits them with one new tag text
/// each, and approves all but the first.
void Cycle(ITagSystem& s, ProviderId provider, UserTaggerId tagger,
           ProjectId p, int round) {
  std::vector<AcceptedTask> tasks = s.AcceptTasks(tagger, p, 3).value();
  ASSERT_EQ(tasks.size(), 3u);
  std::vector<TagSubmission> items;
  std::vector<std::pair<TaskHandle, bool>> decisions;
  for (const AcceptedTask& t : tasks) {
    items.push_back({tagger, t.handle,
                     {"shared", "sub-" + std::to_string(p) + "-" +
                                    std::to_string(round) + "-" +
                                    std::to_string(t.resource)}});
    decisions.emplace_back(t.handle, !decisions.empty());
  }
  for (const Status& st : s.SubmitTagsBatch(items)) {
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  for (const Status& st : s.DecideBatch(provider, decisions)) {
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
}

/// How often the project changes from one row to the next in a scan of
/// `table`: one less than the number of projects when their rows are
/// grouped, more when they interleave.
int ProjectSwitches(const storage::Database& db, const char* table) {
  int switches = 0;
  int64_t last = -1;
  EXPECT_TRUE(db.GetTable(table)->Scan([&](storage::RowId, const Row& row) {
    if (last >= 0 && row[0].as_int() != last) ++switches;
    last = row[0].as_int();
    return true;
  }).ok());
  return switches;
}

/// Four projects on one system take turns: each round every project
/// uploads resources with initial tags, imports a post with new tag texts,
/// and runs an accept/submit/decide cycle, so the dict, resources and
/// posts rows of all four interleave. The fourth project is erased after
/// the second round, which leaves holes in every table's row ids. Durable
/// modes checkpoint after the first round, so recovery reads a snapshot
/// or a page file and then replays a WAL tail.
class RestoreOracleTest : public ::testing::TestWithParam<Mode> {
 protected:
  static constexpr int kProjects = 4;
  static constexpr int kRounds = 4;

  void Run(ITagSystem& s) {
    ProviderId provider = s.RegisterProvider("prov").value();
    UserTaggerId tagger = s.RegisterTagger("tagger").value();
    for (int p = 0; p < kProjects; ++p) {
      projects_.push_back(
          s.CreateProject(provider, AudienceSpec("p" + std::to_string(p)))
              .value());
    }
    erased_ = projects_.back();
    for (int round = 0; round < kRounds; ++round) {
      for (ProjectId p : projects_) {
        if (round >= 2 && p == erased_) continue;
        const std::string stem =
            std::to_string(p) + "-" + std::to_string(round);
        std::vector<tagging::ResourceId> ids;
        for (const Status& st : s.UploadResourceBatch(
                 p,
                 {{ResourceKind::kWebUrl, "u" + stem + "a", "d" + stem,
                   {"shared", "up-" + stem}},
                  {ResourceKind::kImage, "u" + stem + "b", "", {}}},
                 &ids)) {
          ASSERT_TRUE(st.ok()) << st.ToString();
        }
        ASSERT_TRUE(
            s.ImportPost(p, ids[1], {"imp-" + stem, "shared", "Mixed Case"})
                .ok());
        if (round == 0) {
          ASSERT_TRUE(s.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
        }
      }
      for (ProjectId p : projects_) {
        if (round >= 2 && p == erased_) continue;
        Cycle(s, provider, tagger, p, round);
      }
      if (round == 0 && GetParam() != Mode::kInMemory) {
        ASSERT_TRUE(s.Checkpoint().ok());
      }
      if (round == 1) {
        ASSERT_TRUE(s.EraseProject(erased_).ok());
      }
    }
    for (ProjectId p : projects_) {
      if (p == erased_) continue;
      live_.push_back(
          Dump(*s.resource_manager().GetCorpus(p), s.database(), p));
    }
  }

  void ExpectOracle(ITagSystem& recovered) {
    for (const char* table : {tables::kDict, tables::kResources,
                              tables::kPosts}) {
      EXPECT_GT(ProjectSwitches(recovered.database(), table), 2 * kProjects)
          << table;
    }
    EXPECT_EQ(recovered.resource_manager().GetCorpus(erased_), nullptr);
    size_t i = 0;
    for (ProjectId p : projects_) {
      if (p == erased_) continue;
      const tagging::Corpus* corpus =
          recovered.resource_manager().GetCorpus(p);
      ASSERT_NE(corpus, nullptr) << "project " << p;
      Result<std::unique_ptr<tagging::Corpus>> reference =
          ReferenceCorpus(recovered.database(), p);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      const std::string got = Dump(*corpus, recovered.database(), p);
      EXPECT_EQ(got, Dump(*reference.value(), recovered.database(), p))
          << "project " << p;
      EXPECT_EQ(got, live_[i++]) << "project " << p;
      EXPECT_GT(corpus->TotalPosts(), 0u);
    }
  }

  ScratchDir dir_;
  std::vector<ProjectId> projects_;
  ProjectId erased_ = 0;
  std::vector<std::string> live_;
};

TEST_P(RestoreOracleTest, InterleavedProjectsRestoreAsTheIndexWalkBuildsThem) {
  const ITagSystemOptions opts = OptionsFor(GetParam(), dir_.path());
  auto system = std::make_unique<ITagSystem>(opts);
  ASSERT_TRUE(system->Init().ok());
  Run(*system);
  if (HasFatalFailure()) return;
  if (GetParam() == Mode::kInMemory) {
    ASSERT_TRUE(system->Reattach().ok());
  } else {
    system = std::make_unique<ITagSystem>(opts);
    ASSERT_TRUE(system->Init().ok());
  }
  ExpectOracle(*system);
}

INSTANTIATE_TEST_SUITE_P(AllModes, RestoreOracleTest,
                         ::testing::Values(Mode::kInMemory, Mode::kSnapshot,
                                           Mode::kPaged),
                         [](const ::testing::TestParamInfo<Mode>& info) {
                           return ModeName(info.param);
                         });

// ------------------------------------------------------- extract and drop

/// A CorpusTransfer in a diffable form: the dictionary in id order, the
/// resources in upload order, then the posts in transfer order.
std::string TransferDump(const ResourceManager::CorpusTransfer& transfer) {
  std::ostringstream out;
  for (size_t t = 0; t < transfer.dict.size(); ++t) {
    out << "tag " << t << " " << transfer.dict[t] << "\n";
  }
  for (const ResourceManager::CorpusTransfer::Res& res : transfer.resources) {
    out << "resource " << tagging::ResourceKindName(res.kind) << " "
        << res.uri << " \"" << res.description << "\"\n";
  }
  for (const ResourceManager::CorpusTransfer::PostRec& post : transfer.posts) {
    out << "post " << post.resource << " " << post.tagger << " " << post.time
        << ":";
    for (const std::string& tag : post.tags) out << " " << tag;
    out << "\n";
  }
  return out.str();
}

/// Every row of every table, keyed by (table, row id), as its encoded
/// bytes.
std::map<std::pair<std::string, storage::RowId>, std::string> AllRows(
    const storage::Database& db) {
  std::map<std::pair<std::string, storage::RowId>, std::string> rows;
  for (const std::string& name : db.TableNames()) {
    EXPECT_TRUE(db.GetTable(name)
                    ->Scan([&](storage::RowId id, const Row& row) {
                      rows[{name, id}] = storage::EncodeRow(row);
                      return true;
                    })
                    .ok());
  }
  return rows;
}

/// Three projects take turns on one system, so their dict, resources and
/// posts rows interleave: each round every project uploads two resources
/// (one with initial tags), imports a post with new tag texts and runs a
/// tag cycle, and the clock moves a tick, so posts carry different times.
/// Durable modes checkpoint after the first round; every mode then
/// re-derives the system (Reattach in memory, a fresh Init on a directory),
/// so what follows reads rows that recovery read back.
class CorpusMoveTest : public ::testing::TestWithParam<Mode> {
 protected:
  static constexpr int kProjects = 3;
  static constexpr int kRounds = 2;

  void SetUp() override {
    opts_ = OptionsFor(GetParam(), dir_.path());
    system_ = std::make_unique<ITagSystem>(opts_);
    ASSERT_TRUE(system_->Init().ok());
    ITagSystem& s = *system_;
    ProviderId provider = s.RegisterProvider("prov").value();
    UserTaggerId tagger = s.RegisterTagger("tagger").value();
    for (int p = 0; p < kProjects; ++p) {
      projects_.push_back(
          s.CreateProject(provider, AudienceSpec("p" + std::to_string(p)))
              .value());
    }
    for (int round = 0; round < kRounds; ++round) {
      for (ProjectId p : projects_) {
        const std::string stem =
            std::to_string(p) + "-" + std::to_string(round);
        std::vector<tagging::ResourceId> ids;
        for (const Status& st : s.UploadResourceBatch(
                 p,
                 {{ResourceKind::kWebUrl, "u" + stem + "a", "d" + stem,
                   {"shared", "up-" + stem}},
                  {ResourceKind::kImage, "u" + stem + "b", "", {}}},
                 &ids)) {
          ASSERT_TRUE(st.ok()) << st.ToString();
        }
        ASSERT_TRUE(
            s.ImportPost(p, ids[1], {"imp-" + stem, "shared", "Mixed Case"})
                .ok());
        if (round == 0) {
          ASSERT_TRUE(s.ControlBatch(p, {{ControlAction::kStart}})[0].ok());
        }
      }
      for (ProjectId p : projects_) Cycle(s, provider, tagger, p, round);
      ASSERT_TRUE(s.Step(1).ok());
      if (round == 0 && GetParam() != Mode::kInMemory) {
        ASSERT_TRUE(s.Checkpoint().ok());
      }
    }
    // Each round writes rows of every project to every table, one project
    // after another.
    for (const char* table : {tables::kDict, tables::kResources,
                              tables::kPosts}) {
      ASSERT_GE(ProjectSwitches(s.database(), table), kRounds * kProjects - 1)
          << table;
    }
    Rederive();
  }

  /// Re-derives the system from its tables.
  void Rederive() {
    if (GetParam() == Mode::kInMemory) {
      ASSERT_TRUE(system_->Reattach().ok());
      return;
    }
    system_ = std::make_unique<ITagSystem>(opts_);
    ASSERT_TRUE(system_->Init().ok());
  }

  ScratchDir dir_;
  ITagSystemOptions opts_;
  std::unique_ptr<ITagSystem> system_;
  std::vector<ProjectId> projects_;
};

/// What ExtractCorpus returned for projects 1, 2 and 3 when the corpus
/// still kept every post: dictionary, resources, then the posts grouped by
/// resource, each resource's in arrival order.
constexpr std::string_view kTransfers = R"(project 1
tag 0 shared
tag 1 up-1-0
tag 2 imp-1-0
tag 3 mixed-case
tag 4 sub-1-0-0
tag 5 up-1-1
tag 6 imp-1-1
tag 7 sub-1-1-1
resource web_url u1-0a "d1-0"
resource image u1-0b ""
resource web_url u1-1a "d1-1"
resource image u1-1b ""
post 0 4294967295 0: shared up-1-0
post 0 0 0: shared sub-1-0-0
post 0 0 0: shared sub-1-0-0
post 1 4294967295 0: imp-1-0 shared mixed-case
post 1 0 1: shared sub-1-1-1
post 1 0 1: shared sub-1-1-1
post 2 4294967295 0: shared up-1-1
post 3 4294967295 0: imp-1-1 shared mixed-case
project 2
tag 0 shared
tag 1 up-2-0
tag 2 imp-2-0
tag 3 mixed-case
tag 4 sub-2-0-0
tag 5 up-2-1
tag 6 imp-2-1
tag 7 sub-2-1-1
resource web_url u2-0a "d2-0"
resource image u2-0b ""
resource web_url u2-1a "d2-1"
resource image u2-1b ""
post 0 4294967295 0: shared up-2-0
post 0 0 0: shared sub-2-0-0
post 0 0 0: shared sub-2-0-0
post 1 4294967295 0: imp-2-0 shared mixed-case
post 1 0 1: shared sub-2-1-1
post 1 0 1: shared sub-2-1-1
post 2 4294967295 0: shared up-2-1
post 3 4294967295 0: imp-2-1 shared mixed-case
project 3
tag 0 shared
tag 1 up-3-0
tag 2 imp-3-0
tag 3 mixed-case
tag 4 sub-3-0-0
tag 5 up-3-1
tag 6 imp-3-1
tag 7 sub-3-1-1
resource web_url u3-0a "d3-0"
resource image u3-0b ""
resource web_url u3-1a "d3-1"
resource image u3-1b ""
post 0 4294967295 0: shared up-3-0
post 0 0 0: shared sub-3-0-0
post 0 0 0: shared sub-3-0-0
post 1 4294967295 0: imp-3-0 shared mixed-case
post 1 0 1: shared sub-3-1-1
post 1 0 1: shared sub-3-1-1
post 2 4294967295 0: shared up-3-1
post 3 4294967295 0: imp-3-1 shared mixed-case
)";

TEST_P(CorpusMoveTest, ExtractReturnsEachProjectsCorpusGroupedByResource) {
  std::string got;
  for (ProjectId p : projects_) {
    Result<ResourceManager::CorpusTransfer> transfer =
        system_->resource_manager().ExtractCorpus(p);
    ASSERT_TRUE(transfer.ok()) << transfer.status().ToString();
    got += "project " + std::to_string(p) + "\n" +
           TransferDump(transfer.value());
  }
  EXPECT_EQ(got, kTransfers);
  EXPECT_TRUE(system_->resource_manager()
                  .ExtractCorpus(projects_.back() + 1)
                  .status()
                  .IsNotFound());
}

// EraseProject drops the project's corpus (DropCorpus) and its record
// (DropProject): exactly its dict, resources, posts and quality_feed rows
// and its projects row go. Every other row of every table stays, under
// the same row id and byte for byte, and so does the erased state across a
// re-derive.
TEST_P(CorpusMoveTest, EraseDeletesExactlyTheProjectsRows) {
  const ProjectId erased = projects_[1];
  const auto before = AllRows(system_->database());
  ASSERT_TRUE(system_->EraseProject(erased).ok());
  const auto after = AllRows(system_->database());

  // A row of the erased project: column 0 holds the project id in the four
  // per-project tables, and the id in `projects`.
  const std::set<std::string> per_project = {
      tables::kDict, tables::kResources, tables::kPosts,
      tables::kQualityFeed, tables::kProjects};
  std::map<std::string, size_t> dropped;
  for (const auto& [key, bytes] : before) {
    Row row;
    const size_t arity =
        system_->database().GetTable(key.first)->schema().num_columns();
    ASSERT_TRUE(storage::DecodeRow(bytes, arity, &row));
    const bool ours = per_project.count(key.first) != 0 &&
                      row[0] == Value::Int(static_cast<int64_t>(erased));
    auto it = after.find(key);
    if (ours) {
      EXPECT_EQ(it, after.end()) << key.first << " row " << key.second;
      ++dropped[key.first];
    } else {
      ASSERT_NE(it, after.end()) << key.first << " row " << key.second;
      EXPECT_EQ(it->second, bytes) << key.first << " row " << key.second;
    }
  }
  EXPECT_EQ(after.size() + dropped[tables::kDict] +
                dropped[tables::kResources] + dropped[tables::kPosts] +
                dropped[tables::kQualityFeed] + dropped[tables::kProjects],
            before.size());
  for (const std::string& table : per_project) {
    EXPECT_GT(dropped[table], 0u) << table;
  }
  EXPECT_EQ(dropped[tables::kProjects], 1u);
  EXPECT_EQ(system_->resource_manager().GetCorpus(erased), nullptr);

  Rederive();
  EXPECT_EQ(AllRows(system_->database()), after);
  EXPECT_EQ(system_->resource_manager().GetCorpus(erased), nullptr);
  EXPECT_TRUE(system_->GetProjectInfo(erased).status().IsNotFound());
  for (ProjectId p : {projects_[0], projects_[2]}) {
    EXPECT_NE(system_->resource_manager().GetCorpus(p), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, CorpusMoveTest,
                         ::testing::Values(Mode::kInMemory, Mode::kSnapshot,
                                           Mode::kPaged),
                         [](const ::testing::TestParamInfo<Mode>& info) {
                           return ModeName(info.param);
                         });

}  // namespace
}  // namespace itag::core
