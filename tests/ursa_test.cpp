// Tests for the URSA mini information-retrieval system (S12): the paper's
// motivating application, run over the full NTCS across heterogeneous
// machines and multiple networks.
#include <gtest/gtest.h>

#include "core/testbed.h"
#include "drts/process_control.h"
#include "ursa/query.h"
#include "ursa/servers.h"

namespace ursa {
namespace {

using namespace std::chrono_literals;
using ntcs::convert::Arch;
using ntcs::core::Testbed;
using ntcs::drts::ProcessController;

TEST(Corpus, DeterministicGeneration) {
  auto a = Corpus::generate(20, 42);
  auto b = Corpus::generate(20, 42);
  ASSERT_EQ(a.size(), 20u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.documents()[i].text, b.documents()[i].text);
  }
  auto c = Corpus::generate(20, 43);
  EXPECT_NE(a.documents()[0].text, c.documents()[0].text);
}

TEST(Corpus, FindById) {
  auto c = Corpus::generate(10, 1);
  ASSERT_NE(c.find(5), nullptr);
  EXPECT_EQ(c.find(5)->id, 5u);
  EXPECT_EQ(c.find(99), nullptr);
}

TEST(Corpus, TokenizeNormalises) {
  auto tokens = tokenize("Hello, World! foo-bar BAZ42qux");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0], "hello");
  EXPECT_EQ(tokens[1], "world");
  EXPECT_EQ(tokens[2], "foo");
  EXPECT_EQ(tokens[3], "bar");
  EXPECT_EQ(tokens[4], "baz");
  EXPECT_EQ(tokens[5], "qux");
}

TEST(Index, PostingsReflectTermFrequency) {
  Document d1{1, "alpha beta", "alpha alpha gamma"};
  Document d2{2, "beta", "beta beta delta"};
  InvertedIndex idx;
  idx.add_document(d1);
  idx.add_document(d2);
  EXPECT_EQ(idx.doc_count(), 2u);
  const auto& alpha = idx.postings("alpha");
  ASSERT_EQ(alpha.size(), 1u);
  EXPECT_EQ(alpha[0].doc, 1u);
  EXPECT_EQ(alpha[0].tf, 3u);
  const auto& beta = idx.postings("beta");
  ASSERT_EQ(beta.size(), 2u);
  EXPECT_TRUE(idx.postings("nonexistent").empty());
}

TEST(Query, ParseConjunctionAndDisjunction) {
  auto q = parse_query("information retrieval or document indexing");
  ASSERT_EQ(q.groups.size(), 2u);
  EXPECT_EQ(q.groups[0].terms,
            (std::vector<std::string>{"information", "retrieval"}));
  EXPECT_EQ(q.groups[1].terms,
            (std::vector<std::string>{"document", "indexing"}));
  EXPECT_EQ(q.distinct_terms().size(), 4u);
}

TEST(Query, ParseEdgeCases) {
  EXPECT_TRUE(parse_query("").empty());
  EXPECT_TRUE(parse_query("or or or").empty());
  auto q = parse_query("or alpha or");
  ASSERT_EQ(q.groups.size(), 1u);
  EXPECT_EQ(q.groups[0].terms, (std::vector<std::string>{"alpha"}));
  // Duplicate terms collapse in distinct_terms but stay in groups.
  auto q2 = parse_query("x x or x");
  EXPECT_EQ(q2.distinct_terms().size(), 1u);
  EXPECT_EQ(q2.groups[0].terms.size(), 2u);
}

TEST(Query, IdfWeighting) {
  EXPECT_DOUBLE_EQ(idf(100, 0), 0.0);
  EXPECT_GT(idf(100, 1), idf(100, 50));   // rare beats common
  EXPECT_GT(idf(1000, 10), idf(100, 10)); // bigger corpus, higher weight
}

TEST(Query, EvaluateDisjunctionIsUnion) {
  std::map<std::string, std::vector<Posting>> postings;
  postings["a"] = {{1, 2}, {2, 1}};
  postings["b"] = {{3, 4}};
  Query q = parse_query("a or b");
  auto hits = evaluate_query(q, postings, 10, 10);
  ASSERT_EQ(hits.size(), 3u);  // union of both groups
}

TEST(Query, EvaluateConjunctionIsIntersection) {
  std::map<std::string, std::vector<Posting>> postings;
  postings["a"] = {{1, 2}, {2, 1}};
  postings["b"] = {{2, 4}, {3, 1}};
  Query q = parse_query("a b");
  auto hits = evaluate_query(q, postings, 10, 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc, 2u);
  EXPECT_NEAR(hits[0].score, 1 * idf(10, 2) + 4 * idf(10, 2), 1e-12);
}

TEST(Query, RareTermOutranksCommonTerm) {
  // doc 1 holds the rare term once; doc 2 holds the common term three
  // times. With idf weighting the rare match must win.
  std::map<std::string, std::vector<Posting>> postings;
  postings["rare"] = {{1, 1}};
  std::vector<Posting> common;
  for (std::uint64_t d = 2; d <= 60; ++d) {
    common.push_back({d, d == 2 ? 3u : 1u});
  }
  postings["common"] = common;
  Query q = parse_query("rare or common");
  auto hits = evaluate_query(q, postings, 100, 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc, 1u);  // the rare match ranks first
}

TEST(Query, TopKTruncates) {
  std::map<std::string, std::vector<Posting>> postings;
  for (std::uint64_t d = 1; d <= 20; ++d) postings["t"].push_back({d, 1});
  auto hits = evaluate_query(parse_query("t"), postings, 20, 5);
  EXPECT_EQ(hits.size(), 5u);
}

TEST(Protocol, RequestsRoundTrip) {
  auto r1 = decode_request(encode_postings_request("term")).value();
  EXPECT_EQ(r1.op, Op::postings);
  EXPECT_EQ(r1.term, "term");
  auto r2 = decode_request(encode_get_doc_request(17)).value();
  EXPECT_EQ(r2.op, Op::get_doc);
  EXPECT_EQ(r2.doc, 17u);
  auto r3 = decode_request(encode_search_request("a b", 5)).value();
  EXPECT_EQ(r3.op, Op::search);
  EXPECT_EQ(r3.query, "a b");
  EXPECT_EQ(r3.k, 5u);
  auto r4 = decode_request(encode_stats_request()).value();
  EXPECT_EQ(r4.op, Op::stats);
}

TEST(Protocol, ResponsesRoundTrip) {
  std::vector<Posting> postings = {{1, 3}, {7, 1}};
  auto p = decode_postings_response(encode_postings_response(postings));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), postings);

  Document doc{9, "a title", "the text body"};
  auto d = decode_doc_response(encode_doc_response(doc));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().id, 9u);
  EXPECT_EQ(d.value().title, "a title");
  EXPECT_EQ(d.value().text, "the text body");

  std::vector<SearchHit> hits = {{3, 8.0, "t3"}, {1, 2.5, "t1"}};
  auto h = decode_search_response(encode_search_response(hits));
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h.value(), hits);

  auto err = decode_postings_response(
      encode_error(ntcs::Errc::not_found, "missing"));
  EXPECT_EQ(err.code(), ntcs::Errc::not_found);
}

/// Full deployment: NS + 2 LANs + gateway; index on a Sun on lan-b, docs on
/// an Apollo on lan-b, search on a VAX on lan-a, host on lan-a.
struct UrsaRig {
  Testbed tb;
  ProcessController pc{tb};
  std::shared_ptr<Corpus> corpus;
  std::unique_ptr<ntcs::core::Node> host_node;

  UrsaRig() {
    tb.net("lan-a");
    tb.net("lan-b");
    tb.machine("vax1", Arch::vax780, {"lan-a"});
    tb.machine("gwbox", Arch::apollo_dn330, {"lan-a", "lan-b"});
    tb.machine("sun1", Arch::sun3, {"lan-b"});
    tb.machine("apollo1", Arch::apollo_dn330, {"lan-b"});
    EXPECT_TRUE(tb.start_name_server("vax1", "lan-a").ok());
    EXPECT_TRUE(tb.add_gateway("gw", "gwbox", {"lan-a", "lan-b"}).ok());
    EXPECT_TRUE(tb.finalize().ok());

    UrsaPlacement placement;
    placement.index_machine = "sun1";
    placement.index_net = "lan-b";
    placement.doc_machine = "apollo1";
    placement.doc_net = "lan-b";
    placement.search_machine = "vax1";
    placement.search_net = "lan-a";
    auto c = spawn_ursa(pc, placement, 100, 7);
    EXPECT_TRUE(c.ok());
    corpus = c.value();
    host_node = tb.spawn_module("host", "vax1", "lan-a").value();
  }
  ~UrsaRig() {
    if (host_node) host_node->stop();
  }
};

TEST(UrsaSystem, EndToEndSearchAndFetch) {
  UrsaRig rig;
  UrsaHost host(*rig.host_node);
  ASSERT_TRUE(host.connect().ok());

  // Query with the corpus's most common word: must produce hits.
  const std::string common = rig.corpus->vocabulary().front();
  auto hits = host.search(common, 5);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits.value().empty());
  EXPECT_LE(hits.value().size(), 5u);
  // Scores are ranked non-increasing.
  for (std::size_t i = 1; i < hits.value().size(); ++i) {
    EXPECT_GE(hits.value()[i - 1].score, hits.value()[i].score);
  }
  // Fetch the top document and verify the term really occurs in it.
  auto doc = host.fetch(hits.value()[0].doc);
  ASSERT_TRUE(doc.ok());
  const auto tokens = tokenize(doc.value().title + " " + doc.value().text);
  bool found = false;
  for (const auto& t : tokens) {
    if (t == common) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(UrsaSystem, SearchResultsMatchLocalIndex) {
  // The distributed answer must equal a local evaluation of the same query
  // over the same corpus.
  UrsaRig rig;
  UrsaHost host(*rig.host_node);
  ASSERT_TRUE(host.connect().ok());

  InvertedIndex local;
  local.add_corpus(*rig.corpus);
  const std::string term = rig.corpus->vocabulary()[3];

  auto hits = host.search(term, 1000);
  ASSERT_TRUE(hits.ok());
  const auto& expected = local.postings(term);
  ASSERT_EQ(hits.value().size(), expected.size());
  // Scores are tf·idf with idf from the corpus size and document freq.
  const double w = idf(rig.corpus->size(), expected.size());
  double total_remote = 0, total_local = 0;
  for (const auto& h : hits.value()) total_remote += h.score;
  for (const auto& p : expected) total_local += p.tf * w;
  EXPECT_NEAR(total_remote, total_local, 1e-9);
}

TEST(UrsaSystem, MultiTermQueryIsConjunctive) {
  UrsaRig rig;
  UrsaHost host(*rig.host_node);
  ASSERT_TRUE(host.connect().ok());
  const std::string t1 = rig.corpus->vocabulary()[0];
  const std::string t2 = rig.corpus->vocabulary()[1];
  auto both = host.search(t1 + " " + t2, 1000);
  ASSERT_TRUE(both.ok());
  InvertedIndex local;
  local.add_corpus(*rig.corpus);
  // Every hit must appear in both postings lists.
  for (const auto& h : both.value()) {
    bool in1 = false, in2 = false;
    for (const auto& p : local.postings(t1)) in1 |= p.doc == h.doc;
    for (const auto& p : local.postings(t2)) in2 |= p.doc == h.doc;
    EXPECT_TRUE(in1 && in2) << "doc " << h.doc;
  }
}

TEST(UrsaSystem, OrQueryUnionsGroups) {
  UrsaRig rig;
  UrsaHost host(*rig.host_node);
  ASSERT_TRUE(host.connect().ok());
  const std::string t1 = rig.corpus->vocabulary()[2];
  const std::string t2 = rig.corpus->vocabulary()[4];
  auto only1 = host.search(t1, 1000);
  auto only2 = host.search(t2, 1000);
  auto either = host.search(t1 + " or " + t2, 1000);
  ASSERT_TRUE(only1.ok());
  ASSERT_TRUE(only2.ok());
  ASSERT_TRUE(either.ok());
  // The disjunction covers every document of both single-term queries.
  for (const auto& lists : {only1.value(), only2.value()}) {
    for (const auto& h : lists) {
      bool found = false;
      for (const auto& e : either.value()) found |= e.doc == h.doc;
      EXPECT_TRUE(found) << "doc " << h.doc;
    }
  }
  EXPECT_GE(either.value().size(),
            std::max(only1.value().size(), only2.value().size()));
}

TEST(UrsaSystem, UnknownTermYieldsNoHits) {
  UrsaRig rig;
  UrsaHost host(*rig.host_node);
  ASSERT_TRUE(host.connect().ok());
  auto hits = host.search("zzzzunknownterm", 10);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits.value().empty());
}

TEST(UrsaSystem, FetchUnknownDocFails) {
  UrsaRig rig;
  UrsaHost host(*rig.host_node);
  ASSERT_TRUE(host.connect().ok());
  EXPECT_EQ(host.fetch(999999).code(), ntcs::Errc::not_found);
}

TEST(UrsaSystem, IndexServerRelocationMidSession) {
  // The URSA testbed requirement: "dynamically add, modify, or replace
  // system modules, while in operation" (§1.2). Move the index server to
  // another machine between two queries; the search server keeps using
  // the UAdd it resolved first.
  UrsaRig rig;
  UrsaHost host(*rig.host_node);
  ASSERT_TRUE(host.connect().ok());
  const std::string term = rig.corpus->vocabulary().front();
  auto before = host.search(term, 10);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(rig.pc.relocate(std::string(kIndexServerName), "apollo1",
                              "lan-b")
                  .ok());

  auto after = host.search(term, 10);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before.value(), after.value());
}

TEST(UrsaSystem, SearchAfterIndexOutageUsesCorpusSize) {
  // The search server caches the corpus size for its idf weights. A stats
  // fetch that fails during an index outage must not be cached: once the
  // index is back, scores are tf·idf over the real corpus size, as in
  // SearchResultsMatchLocalIndex.
  UrsaRig rig;
  UrsaHost host(*rig.host_node);
  ASSERT_TRUE(host.connect().ok());
  const std::string term = rig.corpus->vocabulary()[3];
  ASSERT_TRUE(rig.pc.kill(std::string(kIndexServerName)).ok());
  EXPECT_FALSE(host.search(term, 1000).ok());

  auto index = std::make_shared<InvertedIndex>();
  index->add_corpus(*rig.corpus);
  ASSERT_TRUE(rig.pc.spawn(std::string(kIndexServerName), "sun1", "lan-b",
                           {{"role", "index"}}, make_index_service(index))
                  .ok());
  auto hits = host.search(term, 1000);
  ASSERT_TRUE(hits.ok()) << hits.error().to_string();
  const auto& expected = index->postings(term);
  ASSERT_EQ(hits.value().size(), expected.size());
  const double w = idf(rig.corpus->size(), expected.size());
  double total_remote = 0, total_local = 0;
  for (const auto& h : hits.value()) total_remote += h.score;
  for (const auto& p : expected) total_local += p.tf * w;
  EXPECT_NEAR(total_remote, total_local, 1e-9);
}

TEST(UrsaSystem, DynamicDocumentAdditionIsSearchable) {
  // §1.2: the testbed must support modifying the system while in
  // operation — here at the application level: a document added at run
  // time is immediately stored, indexed and retrievable.
  UrsaRig rig;
  UrsaHost host(*rig.host_node);
  ASSERT_TRUE(host.connect().ok());
  auto before = host.search("zebrafish", 10);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before.value().empty());

  auto id = host.add_document("zebrafish studies",
                              "the zebrafish is a zebrafish of note");
  ASSERT_TRUE(id.ok());
  EXPECT_GT(id.value(), rig.corpus->size());

  auto after = host.search("zebrafish", 10);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.value().size(), 1u);
  EXPECT_EQ(after.value()[0].doc, id.value());
  // tf 3 (title 1 + text 2), idf from the corpus size the search server
  // cached at its first query (pre-addition) and df = 1.
  EXPECT_NEAR(after.value()[0].score, 3.0 * idf(rig.corpus->size(), 1),
              1e-9);

  auto doc = host.fetch(id.value());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().title, "zebrafish studies");
}

TEST(UrsaSystem, AddedDocumentsCountInStats) {
  UrsaRig rig;
  UrsaHost host(*rig.host_node);
  ASSERT_TRUE(host.connect().ok());
  ASSERT_TRUE(host.add_document("t", "one two three").ok());
  ASSERT_TRUE(host.add_document("t2", "four five").ok());
  // Two distinct ids were assigned.
  auto id3 = host.add_document("t3", "six");
  ASSERT_TRUE(id3.ok());
  EXPECT_EQ(id3.value(), rig.corpus->size() + 3);
}

TEST(UrsaSystem, StatsCountServedRequests) {
  UrsaRig rig;
  UrsaHost host(*rig.host_node);
  ASSERT_TRUE(host.connect().ok());
  (void)host.search(rig.corpus->vocabulary().front(), 3);
  auto stats = host.index_stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.value().served, 1u);
  EXPECT_GT(stats.value().items_held, 0u);  // index terms
}

}  // namespace
}  // namespace ursa
