#include "src/topicmodel/lda.h"

#include <algorithm>
#include <numeric>

#include "src/common/logging.h"

namespace dime {

LdaModel::LdaModel(const std::vector<std::vector<std::string>>& docs,
                   const LdaOptions& options)
    : options_(options) {
  DIME_CHECK_GT(options_.num_topics, 0);
  doc_tokens_.reserve(docs.size());
  for (const auto& doc : docs) {
    doc_tokens_.push_back(dict_.InternDocument(doc));
  }
  const int k = options_.num_topics;
  doc_topic_count_.assign(doc_tokens_.size(), std::vector<int>(k, 0));
  topic_word_count_.assign(k, std::vector<int>(dict_.size(), 0));
  topic_count_.assign(k, 0);
  assignments_.resize(doc_tokens_.size());

  Random rng(options_.seed);
  for (size_t d = 0; d < doc_tokens_.size(); ++d) {
    assignments_[d].resize(doc_tokens_[d].size());
    for (size_t i = 0; i < doc_tokens_[d].size(); ++i) {
      int z = static_cast<int>(rng.Uniform(static_cast<uint64_t>(k)));
      assignments_[d][i] = z;
      ++doc_topic_count_[d][z];
      ++topic_word_count_[z][doc_tokens_[d][i]];
      ++topic_count_[z];
    }
  }
  RunGibbs();
}

void LdaModel::RunGibbs() {
  const int k = options_.num_topics;
  const double alpha = options_.alpha;
  const double beta = options_.beta;
  const double vbeta = beta * static_cast<double>(dict_.size());
  Random rng(options_.seed + 1);
  std::vector<double> probs(k);

  for (int iter = 0; iter < options_.iterations; ++iter) {
    for (size_t d = 0; d < doc_tokens_.size(); ++d) {
      for (size_t i = 0; i < doc_tokens_[d].size(); ++i) {
        TokenId w = doc_tokens_[d][i];
        int old_z = assignments_[d][i];
        --doc_topic_count_[d][old_z];
        --topic_word_count_[old_z][w];
        --topic_count_[old_z];

        double total = 0.0;
        for (int t = 0; t < k; ++t) {
          double p = (doc_topic_count_[d][t] + alpha) *
                     (topic_word_count_[t][w] + beta) /
                     (topic_count_[t] + vbeta);
          probs[t] = p;
          total += p;
        }
        double u = rng.UniformDouble() * total;
        int new_z = k - 1;
        double cum = 0.0;
        for (int t = 0; t < k; ++t) {
          cum += probs[t];
          if (u <= cum) {
            new_z = t;
            break;
          }
        }
        assignments_[d][i] = new_z;
        ++doc_topic_count_[d][new_z];
        ++topic_word_count_[new_z][w];
        ++topic_count_[new_z];
      }
    }
  }
}

std::vector<double> LdaModel::DocumentTopicMixture(size_t d) const {
  const int k = options_.num_topics;
  std::vector<double> mix(k);
  double total = 0.0;
  for (int t = 0; t < k; ++t) {
    mix[t] = doc_topic_count_[d][t] + options_.alpha;
    total += mix[t];
  }
  for (double& m : mix) m /= total;
  return mix;
}

int LdaModel::DominantTopic(size_t d) const {
  const auto& counts = doc_topic_count_[d];
  return static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
}

double LdaModel::TopicWordProb(int topic, TokenId w) const {
  const double beta = options_.beta;
  const double vbeta = beta * static_cast<double>(dict_.size());
  return (topic_word_count_[topic][w] + beta) / (topic_count_[topic] + vbeta);
}

std::vector<double> LdaModel::InferMixture(
    const std::vector<std::string>& tokens) const {
  const int k = options_.num_topics;
  std::vector<double> mix(k, options_.alpha);
  for (const std::string& token : tokens) {
    TokenId w = dict_.Lookup(token);
    if (w == TokenDictionary::kNoToken) continue;
    // Soft assignment: add each word's posterior over topics.
    double total = 0.0;
    std::vector<double> p(k);
    for (int t = 0; t < k; ++t) {
      p[t] = TopicWordProb(t, w);
      total += p[t];
    }
    for (int t = 0; t < k; ++t) mix[t] += p[t] / total;
  }
  double total = std::accumulate(mix.begin(), mix.end(), 0.0);
  for (double& m : mix) m /= total;
  return mix;
}

int LdaModel::InferTopic(const std::vector<std::string>& tokens) const {
  bool any = false;
  for (const std::string& token : tokens) {
    if (dict_.Lookup(token) != TokenDictionary::kNoToken) {
      any = true;
      break;
    }
  }
  if (!any) return -1;
  std::vector<double> mix = InferMixture(tokens);
  return static_cast<int>(std::max_element(mix.begin(), mix.end()) -
                          mix.begin());
}

std::vector<std::string> LdaModel::TopWords(int topic, size_t k) const {
  std::vector<TokenId> ids(dict_.size());
  std::iota(ids.begin(), ids.end(), 0);
  size_t take = std::min(k, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + take, ids.end(),
                    [this, topic](TokenId a, TokenId b) {
                      int ca = topic_word_count_[topic][a];
                      int cb = topic_word_count_[topic][b];
                      if (ca != cb) return ca > cb;
                      return a < b;
                    });
  std::vector<std::string> words;
  words.reserve(take);
  for (size_t i = 0; i < take; ++i) words.emplace_back(dict_.Token(ids[i]));
  return words;
}

}  // namespace dime
