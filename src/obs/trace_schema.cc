#include "obs/trace_schema.h"

namespace qa::obs {

namespace {

/// Default-valued fields are omitted on write; FromJson falls back to the
/// same defaults, so omission is invisible to a round trip.
void SetIfNot(Json& json, const char* key, int64_t value, int64_t skip) {
  if (value != skip) json.Set(key, value);
}

void SetIfNot(Json& json, const char* key, double value_d, double skip_d) {
  // Exact sentinel compare on purpose: `skip_d` is the untouched field
  // default that FromJson restores, never a computed value, and omitting
  // on "near default" would break the byte-stable write->parse->write.
  // qa-lint: allow(QA-NUM-001)
  if (value_d != skip_d) json.Set(key, value_d);
}

}  // namespace

Json MetaRecord::ToJson() const {
  Json json = Json::MakeObject();
  json.Set("type", "meta");
  json.Set("schema", schema);
  json.Set("mechanism", mechanism);
  json.Set("nodes", nodes);
  json.Set("classes", classes);
  json.Set("period_us", period_us);
  json.Set("ticks_per_period", ticks_per_period);
  json.Set("seed", static_cast<int64_t>(seed));
  if (!solicitation.empty()) json.Set("solicitation", solicitation);
  SetIfNot(json, "fanout", int64_t{fanout}, int64_t{0});
  SetIfNot(json, "clusters", int64_t{clusters}, int64_t{0});
  SetIfNot(json, "top_fanout", int64_t{top_fanout}, int64_t{0});
  return json;
}

MetaRecord MetaRecord::FromJson(const Json& json) {
  MetaRecord r;
  r.schema = static_cast<int>(json.GetInt("schema", kTraceSchemaVersion));
  r.mechanism = json.GetString("mechanism");
  r.nodes = static_cast<int>(json.GetInt("nodes"));
  r.classes = static_cast<int>(json.GetInt("classes"));
  r.period_us = json.GetInt("period_us");
  r.ticks_per_period = static_cast<int>(json.GetInt("ticks_per_period"));
  r.seed = static_cast<uint64_t>(json.GetInt("seed"));
  r.solicitation = json.GetString("solicitation");
  r.fanout = static_cast<int>(json.GetInt("fanout", 0));
  r.clusters = static_cast<int>(json.GetInt("clusters", 0));
  r.top_fanout = static_cast<int>(json.GetInt("top_fanout", 0));
  return r;
}

std::string_view EventKindName(EventRecord::Kind kind) {
  switch (kind) {
    case EventRecord::Kind::kArrival:
      return "arrival";
    case EventRecord::Kind::kAssign:
      return "assign";
    case EventRecord::Kind::kReject:
      return "reject";
    case EventRecord::Kind::kDrop:
      return "drop";
    case EventRecord::Kind::kBounce:
      return "bounce";
    case EventRecord::Kind::kDeliver:
      return "deliver";
    case EventRecord::Kind::kComplete:
      return "complete";
    case EventRecord::Kind::kTick:
      return "tick";
    case EventRecord::Kind::kCrash:
      return "crash";
    case EventRecord::Kind::kRestart:
      return "restart";
    case EventRecord::Kind::kDegrade:
      return "degrade";
    case EventRecord::Kind::kLost:
      return "lost";
    case EventRecord::Kind::kShed:
      return "shed";
    case EventRecord::Kind::kSurge:
      return "surge";
  }
  return "?";
}

bool ParseEventKind(std::string_view name, EventRecord::Kind* kind) {
  for (EventRecord::Kind k :
       {EventRecord::Kind::kArrival, EventRecord::Kind::kAssign,
        EventRecord::Kind::kReject, EventRecord::Kind::kDrop,
        EventRecord::Kind::kBounce, EventRecord::Kind::kDeliver,
        EventRecord::Kind::kComplete, EventRecord::Kind::kTick,
        EventRecord::Kind::kCrash, EventRecord::Kind::kRestart,
        EventRecord::Kind::kDegrade, EventRecord::Kind::kLost,
        EventRecord::Kind::kShed, EventRecord::Kind::kSurge}) {
    if (EventKindName(k) == name) {
      *kind = k;
      return true;
    }
  }
  return false;
}

Json EventRecord::ToJson() const {
  Json json = Json::MakeObject();
  json.Set("type", "event");
  json.Set("kind", std::string(EventKindName(kind)));
  json.Set("t_us", t_us);
  SetIfNot(json, "query", query, int64_t{-1});
  SetIfNot(json, "class", int64_t{class_id}, int64_t{-1});
  SetIfNot(json, "node", int64_t{node}, int64_t{-1});
  SetIfNot(json, "origin", int64_t{origin}, int64_t{-1});
  SetIfNot(json, "messages", int64_t{messages}, int64_t{0});
  SetIfNot(json, "solicited", int64_t{solicited}, int64_t{0});
  SetIfNot(json, "attempts", int64_t{attempts}, int64_t{0});
  SetIfNot(json, "cluster", int64_t{cluster}, int64_t{-1});
  SetIfNot(json, "clusters_asked", int64_t{clusters_asked}, int64_t{0});
  SetIfNot(json, "response_ms", response_ms, 0.0);
  SetIfNot(json, "factor", factor, 0.0);
  return json;
}

EventRecord EventRecord::FromJson(const Json& json) {
  EventRecord r;
  ParseEventKind(json.GetString("kind"), &r.kind);
  r.t_us = json.GetInt("t_us");
  r.query = json.GetInt("query", -1);
  r.class_id = static_cast<int>(json.GetInt("class", -1));
  r.node = static_cast<int>(json.GetInt("node", -1));
  r.origin = static_cast<int>(json.GetInt("origin", -1));
  r.messages = static_cast<int>(json.GetInt("messages", 0));
  r.solicited = static_cast<int>(json.GetInt("solicited", 0));
  r.attempts = static_cast<int>(json.GetInt("attempts", 0));
  r.cluster = static_cast<int>(json.GetInt("cluster", -1));
  r.clusters_asked = static_cast<int>(json.GetInt("clusters_asked", 0));
  r.response_ms = json.GetDouble("response_ms", 0.0);
  r.factor = json.GetDouble("factor", 0.0);
  return r;
}

Json PriceRecord::ToJson() const {
  Json json = Json::MakeObject();
  json.Set("type", "price");
  json.Set("t_us", t_us);
  json.Set("node", node);
  json.Set("class", class_id);
  json.Set("price", price);
  SetIfNot(json, "planned", planned, int64_t{0});
  SetIfNot(json, "remaining", remaining, int64_t{0});
  return json;
}

PriceRecord PriceRecord::FromJson(const Json& json) {
  PriceRecord r;
  r.t_us = json.GetInt("t_us");
  r.node = static_cast<int>(json.GetInt("node", -1));
  r.class_id = static_cast<int>(json.GetInt("class", -1));
  r.price = json.GetDouble("price");
  r.planned = json.GetInt("planned", 0);
  r.remaining = json.GetInt("remaining", 0);
  return r;
}

Json AgentRecord::ToJson() const {
  Json json = Json::MakeObject();
  json.Set("type", "agent");
  json.Set("t_us", t_us);
  json.Set("node", node);
  json.Set("requests", requests);
  json.Set("offers", offers);
  json.Set("accepted", accepted);
  json.Set("declined", declined);
  json.Set("periods", periods);
  SetIfNot(json, "debt_us", debt_us, int64_t{0});
  SetIfNot(json, "budget_us", budget_us, int64_t{0});
  SetIfNot(json, "earnings", earnings, 0.0);
  return json;
}

AgentRecord AgentRecord::FromJson(const Json& json) {
  AgentRecord r;
  r.t_us = json.GetInt("t_us");
  r.node = static_cast<int>(json.GetInt("node", -1));
  r.requests = json.GetInt("requests");
  r.offers = json.GetInt("offers");
  r.accepted = json.GetInt("accepted");
  r.declined = json.GetInt("declined");
  r.periods = json.GetInt("periods");
  r.debt_us = json.GetInt("debt_us", 0);
  r.budget_us = json.GetInt("budget_us", 0);
  r.earnings = json.GetDouble("earnings", 0.0);
  return r;
}

Json ClusterRecord::ToJson() const {
  Json json = Json::MakeObject();
  json.Set("type", "cluster");
  json.Set("t_us", t_us);
  json.Set("cluster", cluster);
  json.Set("class", class_id);
  SetIfNot(json, "published", published, int64_t{0});
  SetIfNot(json, "remaining", remaining, int64_t{0});
  SetIfNot(json, "sold", sold, int64_t{0});
  return json;
}

ClusterRecord ClusterRecord::FromJson(const Json& json) {
  ClusterRecord r;
  r.t_us = json.GetInt("t_us");
  r.cluster = static_cast<int>(json.GetInt("cluster", -1));
  r.class_id = static_cast<int>(json.GetInt("class", -1));
  r.published = json.GetInt("published", 0);
  r.remaining = json.GetInt("remaining", 0);
  r.sold = json.GetInt("sold", 0);
  return r;
}

Json UmpireRecord::ToJson() const {
  Json json = Json::MakeObject();
  json.Set("type", "umpire");
  json.Set("iter", iter);
  json.Set("class", class_id);
  json.Set("price", price);
  json.Set("excess", excess);
  return json;
}

UmpireRecord UmpireRecord::FromJson(const Json& json) {
  UmpireRecord r;
  r.iter = static_cast<int>(json.GetInt("iter"));
  r.class_id = static_cast<int>(json.GetInt("class", -1));
  r.price = json.GetDouble("price");
  r.excess = json.GetDouble("excess");
  return r;
}

Json RunRecord::ToJson() const {
  Json json = Json::MakeObject();
  json.Set("type", "run");
  json.Set("metrics", metrics);
  return json;
}

RunRecord RunRecord::FromJson(const Json& json) {
  const Json* metrics = json.Find("metrics");
  return RunRecord{metrics != nullptr ? *metrics : Json::MakeObject()};
}

}  // namespace qa::obs
