#include "ursa/servers.h"

#include <algorithm>
#include <map>

#include "ursa/query.h"

namespace ursa {

using namespace std::chrono_literals;
using ntcs::core::Node;
using ntcs::core::UAdd;

namespace {

/// Serve URSA requests on `node`: each is decoded for `handle`, and a
/// malformed one is answered with bad_message.
template <typename Handler>
void serve_requests(Node& node, const std::stop_token& st, Handler&& handle) {
  node.commod().serve(st, [&](const ntcs::core::Incoming& in) -> ntcs::Bytes {
    auto req = decode_request(in.payload);
    if (!req) {
      return encode_error(ntcs::Errc::bad_message, req.error().to_string());
    }
    return handle(req.value());
  });
}

}  // namespace

ntcs::drts::ServiceFn make_index_service(std::shared_ptr<InvertedIndex> idx) {
  auto served = std::make_shared<std::uint64_t>(0);
  return [idx = std::move(idx), served](Node& node, std::stop_token st) {
    serve_requests(node, st, [&](const Request& req) -> ntcs::Bytes {
      ++*served;
      switch (req.op) {
        case Op::postings:
          return encode_postings_response(idx->postings(req.term));
        case Op::index_doc: {
          // Dynamic index update (the testbed requirement: modify the
          // system "while in operation"). Served by the same thread as
          // lookups, so no synchronisation is needed.
          Document doc{req.doc, req.title, req.text};
          idx->add_document(doc);
          return encode_ok_response();
        }
        case Op::stats:
          return encode_stats_response(*served, idx->term_count(),
                                       idx->doc_count());
        default:
          return encode_error(ntcs::Errc::unsupported,
                              "index server: unsupported op");
      }
    });
  };
}

ntcs::drts::ServiceFn make_doc_service(std::shared_ptr<Corpus> corpus) {
  // Documents added at run time live beside the immutable base corpus;
  // both maps are touched only by the doc server's own thread.
  struct Store {
    std::uint64_t served = 0;
    std::map<std::uint64_t, Document> added;
    std::uint64_t next_id = 0;
  };
  auto store = std::make_shared<Store>();
  return [corpus = std::move(corpus), store](Node& node,
                                             std::stop_token st) {
    if (store->next_id == 0) store->next_id = corpus->size() + 1;
    serve_requests(node, st, [&](const Request& req) -> ntcs::Bytes {
      ++store->served;
      switch (req.op) {
        case Op::get_doc: {
          const Document* doc = corpus->find(req.doc);
          if (doc == nullptr) {
            auto it = store->added.find(req.doc);
            if (it != store->added.end()) doc = &it->second;
          }
          if (doc == nullptr) {
            return encode_error(ntcs::Errc::not_found,
                                "no document " + std::to_string(req.doc));
          }
          return encode_doc_response(*doc);
        }
        case Op::add_doc: {
          Document doc{store->next_id++, req.title, req.text};
          const std::uint64_t id = doc.id;
          store->added[id] = std::move(doc);
          return encode_add_doc_response(id);
        }
        case Op::stats:
          return encode_stats_response(store->served,
                                       corpus->size() + store->added.size());
        default:
          return encode_error(ntcs::Errc::unsupported,
                              "doc server: unsupported op");
      }
    });
  };
}

ntcs::drts::ServiceFn make_search_service() {
  // Query evaluation asks the index server for postings — backend-to-
  // backend NTCS traffic, with the index server located by name once.
  struct State {
    UAdd index;
    std::uint64_t served = 0;
    std::uint64_t corpus_docs = 0;  // cached from the index server's stats
  };
  auto state = std::make_shared<State>();
  return [state](Node& n, std::stop_token st) {
    serve_requests(n, st, [&](const Request& req) -> ntcs::Bytes {
      ++state->served;
      switch (req.op) {
        case Op::search: {
          if (!state->index.valid()) {
            auto located = n.commod().locate(kIndexServerName);
            if (!located) {
              return encode_error(located.error().code(),
                                  "cannot locate index server");
            }
            state->index = located.value();
          }
          if (state->corpus_docs == 0) {
            // The idf weights need the corpus size, fetched once it can
            // be: a failed fetch fails this search, and the next retries.
            auto reply = n.commod().request(state->index,
                                            encode_stats_request(), 3s);
            if (!reply) {
              return encode_error(reply.error().code(),
                                  "index stats failed: " +
                                      reply.error().to_string());
            }
            auto stats = decode_stats_response(reply.value().payload);
            if (!stats) {
              return encode_error(stats.error().code(),
                                  stats.error().to_string());
            }
            state->corpus_docs = stats.value().doc_count;
          }
          const Query q = parse_query(req.query);
          std::map<std::string, std::vector<Posting>> postings;
          for (const std::string& term : q.distinct_terms()) {
            auto reply = n.commod().request(
                state->index, encode_postings_request(term), 3s);
            if (!reply) {
              return encode_error(reply.error().code(),
                                  "index lookup failed: " +
                                      reply.error().to_string());
            }
            auto list = decode_postings_response(reply.value().payload);
            if (!list) {
              return encode_error(list.error().code(),
                                  list.error().to_string());
            }
            postings[term] = std::move(list.value());
          }
          return encode_search_response(
              evaluate_query(q, postings, state->corpus_docs, req.k));
        }
        case Op::stats:
          return encode_stats_response(state->served, 0);
        default:
          return encode_error(ntcs::Errc::unsupported,
                              "search server: unsupported op");
      }
    });
  };
}

ntcs::Result<std::shared_ptr<Corpus>> spawn_ursa(
    ntcs::drts::ProcessController& pc, const UrsaPlacement& placement,
    std::size_t corpus_docs, std::uint64_t seed) {
  auto corpus = std::make_shared<Corpus>(Corpus::generate(corpus_docs, seed));
  auto index = std::make_shared<InvertedIndex>();
  index->add_corpus(*corpus);

  auto idx_uadd = pc.spawn(std::string(kIndexServerName),
                           placement.index_machine, placement.index_net,
                           {{"role", "index"}}, make_index_service(index));
  if (!idx_uadd) return idx_uadd.error();
  auto doc_uadd = pc.spawn(std::string(kDocServerName), placement.doc_machine,
                           placement.doc_net, {{"role", "docs"}},
                           make_doc_service(corpus));
  if (!doc_uadd) return doc_uadd.error();
  auto search_uadd = pc.spawn(std::string(kSearchServerName),
                              placement.search_machine, placement.search_net,
                              {{"role", "search"}}, make_search_service());
  if (!search_uadd) return search_uadd.error();
  return corpus;
}

UrsaHost::UrsaHost(Node& node) : node_(node) {}

ntcs::Status UrsaHost::connect() {
  auto search = node_.commod().locate(kSearchServerName);
  if (!search) return search.error();
  auto docs = node_.commod().locate(kDocServerName);
  if (!docs) return docs.error();
  auto index = node_.commod().locate(kIndexServerName);
  if (!index) return index.error();
  search_ = search.value();
  docs_ = docs.value();
  index_ = index.value();
  connected_ = true;
  return ntcs::Status::success();
}

ntcs::Result<std::vector<SearchHit>> UrsaHost::search(const std::string& query,
                                                      std::size_t k) {
  if (!connected_) {
    return ntcs::Error(ntcs::Errc::bad_argument, "host not connected");
  }
  auto reply =
      node_.commod().request(search_, encode_search_request(query, k), 5s);
  if (!reply) return reply.error();
  return decode_search_response(reply.value().payload);
}

ntcs::Result<Document> UrsaHost::fetch(std::uint64_t doc) {
  if (!connected_) {
    return ntcs::Error(ntcs::Errc::bad_argument, "host not connected");
  }
  auto reply = node_.commod().request(docs_, encode_get_doc_request(doc), 5s);
  if (!reply) return reply.error();
  return decode_doc_response(reply.value().payload);
}

ntcs::Result<std::uint64_t> UrsaHost::add_document(const std::string& title,
                                                   const std::string& text) {
  if (!connected_) {
    return ntcs::Error(ntcs::Errc::bad_argument, "host not connected");
  }
  auto stored =
      node_.commod().request(docs_, encode_add_doc_request(title, text), 5s);
  if (!stored) return stored.error();
  auto id = decode_add_doc_response(stored.value().payload);
  if (!id) return id.error();
  Document doc{id.value(), title, text};
  auto indexed =
      node_.commod().request(index_, encode_index_doc_request(doc), 5s);
  if (!indexed) return indexed.error();
  if (auto st = decode_ok_response(indexed.value().payload); !st.ok()) {
    return st.error();
  }
  return id.value();
}

ntcs::Result<StatsResponse> UrsaHost::index_stats() {
  if (!connected_) {
    return ntcs::Error(ntcs::Errc::bad_argument, "host not connected");
  }
  auto reply = node_.commod().request(index_, encode_stats_request(), 5s);
  if (!reply) return reply.error();
  return decode_stats_response(reply.value().payload);
}

}  // namespace ursa
