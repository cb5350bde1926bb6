#include "engine/run_time_engine.hpp"

#include <deque>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"

namespace damocles::engine {

using blueprint::Blueprint;
using blueprint::CompiledRules;
using blueprint::ViewTemplate;
using events::Direction;
using events::EventMessage;
using metadb::CarryPolicy;
using metadb::Link;
using metadb::LinkId;
using metadb::LinkKind;
using metadb::MetaObject;
using metadb::Oid;
using metadb::OidId;

RunTimeEngine::RunTimeEngine(metadb::MetaDatabase& db, SimClock& clock,
                             EngineOptions options,
                             const PropagationIndex* index)
    : db_(db),
      clock_(clock),
      options_(options),
      own_index_(db),
      index_(index != nullptr ? index : &own_index_) {
  if (index == nullptr && options_.use_propagation_index) {
    db_.AddLinkObserver(this);
    own_index_.Rebuild();
  }
}

RunTimeEngine::~RunTimeEngine() { db_.RemoveLinkObserver(this); }

void RunTimeEngine::LoadBlueprint(Blueprint blueprint,
                                  uint64_t policy_version) {
  blueprint_ = std::make_unique<Blueprint>(std::move(blueprint));
  // Rule-table compile point. Cached OidBindings re-resolve lazily
  // against the bumped generation, and every OID's settled state goes
  // stale with it; SymbolIds themselves stay valid (the database's
  // table only grows). It is also a structural point: every name a rule
  // or link template mentions is interned into the database here, so
  // wave workers only look names up and write by id.
  compiled_.Compile(
      *blueprint_, [this](std::string_view name) { return db_.Intern(name); },
      policy_version);
  // Blueprint install is the index build point (a borrowed index is
  // rebuilt by the engine that owns it).
  if (index_ == &own_index_ && options_.use_propagation_index) {
    own_index_.Rebuild();
  }
}

// --- Propagation index maintenance ----------------------------------------

void RunTimeEngine::OnLinkAdded(LinkId id, const Link& link) {
  own_index_.AddLink(id, link);
}

void RunTimeEngine::OnLinkRemoved(LinkId id, const Link& link) {
  own_index_.RemoveLink(id, link);
}

void RunTimeEngine::OnLinkEndpointMoved(LinkId id, bool endpoint_from,
                                        OidId old_endpoint, const Link& link) {
  own_index_.MoveLinkEndpoint(id, endpoint_from, old_endpoint, link);
}

void RunTimeEngine::OnLinkPropagatesChanged(
    LinkId /*id*/, const std::vector<std::string>& old_propagates,
    const Link& link) {
  own_index_.SetLinkPropagates(old_propagates, link);
}

const Blueprint& RunTimeEngine::Current() const {
  if (!blueprint_) throw Error("RunTimeEngine: no blueprint loaded");
  return *blueprint_;
}

// --- Per-OID state ---------------------------------------------------------

RunTimeEngine::WaveVisited& RunTimeEngine::AcquireVisited() {
  if (visited_depth_ == visited_pool_.size()) {
    visited_pool_.push_back(std::make_unique<WaveVisited>());
  }
  WaveVisited& set = *visited_pool_[visited_depth_++];
  set.Begin(db_.ObjectSlotCount());
  return set;
}

RunTimeEngine::OidBinding& RunTimeEngine::SlotOf(OidId id) {
  const size_t slot = id.value();
  if (slot >= bindings_.size()) {
    bindings_.resize(std::max(db_.ObjectSlotCount(), slot + 1));
  }
  return bindings_[slot];
}

const RunTimeEngine::OidBinding& RunTimeEngine::BindingOf(OidId id) {
  OidBinding& binding = SlotOf(id);
  if (binding.generation != compiled_.generation()) {
    // The object's view is already a database symbol, the key the rule
    // tables were compiled under.
    binding.rules = compiled_.Resolve(db_.GetObject(id).view);
    binding.generation = compiled_.generation();
  }
  return binding;
}

// --- Creation notifications ---------------------------------------------------

OidId RunTimeEngine::OnCreateObject(std::string_view block,
                                    std::string_view view,
                                    std::string_view user) {
  const OidId id =
      db_.CreateNextVersion(block, view, user, clock_.NowSeconds());
  const std::optional<OidId> previous = db_.PreviousVersion(id);

  if (blueprint_) {
    ++stats_.objects_templated;
    // Default-view templates apply to every view; specific templates
    // follow so they can override a default-view property's value.
    const ViewTemplate* sources[2] = {blueprint_->DefaultView(),
                                      blueprint_->FindView(view)};
    for (const ViewTemplate* source : sources) {
      if (source == nullptr) continue;
      for (const blueprint::PropertyTemplate& property : source->properties) {
        std::string value = property.default_value;
        if (previous.has_value() &&
            property.carry != CarryPolicy::kNone) {
          if (const std::string* carried =
                  db_.GetProperty(*previous, property.name)) {
            value = *carried;
            ++stats_.properties_carried;
            if (property.carry == CarryPolicy::kMove) {
              db_.RemoveProperty(*previous, property.name);
            }
          }
        }
        SetPropertyCounted(id, db_.Intern(property.name), value);
      }
    }
  }

  // Carry link instances whose policy asks for it (paper Fig. 3). Both
  // endpoints can shift: a new REG.schematic version pulls the use link
  // from its parent; a new GDSII version pulls the derive link from the
  // netlist.
  if (previous.has_value()) {
    const std::vector<LinkId> ins = db_.InLinks(*previous);
    for (const LinkId link_id : ins) {
      const Link& link = db_.GetLink(link_id);
      if (link.carry == CarryPolicy::kMove) {
        db_.MoveLinkEndpoint(link_id, /*endpoint_from=*/false, id);
        ++stats_.links_carried;
      } else if (link.carry == CarryPolicy::kCopy) {
        db_.CreateLink(link.kind, link.from, id, link.propagates, link.type,
                       link.carry);
        ++stats_.links_carried;
      }
    }
    const std::vector<LinkId> outs = db_.OutLinks(*previous);
    for (const LinkId link_id : outs) {
      const Link& link = db_.GetLink(link_id);
      if (link.carry == CarryPolicy::kMove) {
        db_.MoveLinkEndpoint(link_id, /*endpoint_from=*/true, id);
        ++stats_.links_carried;
      } else if (link.carry == CarryPolicy::kCopy) {
        db_.CreateLink(link.kind, id, link.to, link.propagates, link.type,
                       link.carry);
        ++stats_.links_carried;
      }
    }
  }

  RefreshComputedProperties(id);
  return id;
}

LinkId RunTimeEngine::OnCreateLink(LinkKind kind, OidId from, OidId to) {
  const MetaObject& from_object = db_.GetObject(from);
  const MetaObject& to_object = db_.GetObject(to);

  // Idempotence: tools re-run constantly (the netlister fires on every
  // schematic check-in) and re-announce the same relation; a duplicate
  // link would double propagation work and bloat the meta-data. An
  // existing live link with identical kind and endpoints is the same
  // relation — return it.
  for (const LinkId existing : db_.OutLinks(from)) {
    const Link& link = db_.GetLink(existing);
    if (link.kind == kind && link.to == to) return existing;
  }

  const blueprint::LinkTemplate* match =
      blueprint_ ? blueprint_->FindLinkTemplate(kind, db_.ViewOf(from_object),
                                                db_.ViewOf(to_object))
                 : nullptr;
  if (match != nullptr) {
    ++stats_.links_templated;
  } else {
    ++stats_.links_untemplated;
  }
  // No template: the link propagates nothing and carries nothing.
  const blueprint::LinkTemplate untemplated;
  const blueprint::LinkTemplate& applied =
      match != nullptr ? *match : untemplated;

  const LinkId id = db_.CreateLink(kind, from, to, applied.propagates,
                                   applied.type, applied.carry);
  AnnotateLink(db_.GetLinkMutable(id));
  return id;
}

void RunTimeEngine::AnnotateLink(Link& link) {
  // Mirror the template content into queryable link properties, the way
  // DAMOCLES annotates Link objects (paper §2).
  link.properties["PROPAGATE"] = Join(link.propagates, ",");
  if (link.type.empty()) {
    link.properties.erase("TYPE");
  } else {
    link.properties["TYPE"] = link.type;
  }
}

size_t RunTimeEngine::RetemplateLinks() {
  if (!blueprint_) return 0;
  size_t touched = 0;
  const blueprint::LinkTemplate untemplated;
  std::vector<LinkId> live;
  db_.ForEachLink([&](LinkId id, const Link&) { live.push_back(id); });
  for (const LinkId id : live) {
    Link& link = db_.GetLinkMutable(id);
    const blueprint::LinkTemplate* match =
        blueprint_->FindLinkTemplate(link.kind,
                                     db_.ViewOf(db_.GetObject(link.from)),
                                     db_.ViewOf(db_.GetObject(link.to)));
    const blueprint::LinkTemplate& applied =
        match != nullptr ? *match : untemplated;
    if (link.propagates == applied.propagates && link.type == applied.type &&
        link.carry == applied.carry) {
      continue;
    }
    // PROPAGATE goes through the observer-notifying setter so
    // propagation indexes stay consistent; TYPE and carry do not
    // affect wave expansion and are written directly.
    db_.SetLinkPropagates(id, applied.propagates);
    link.type = applied.type;
    link.carry = applied.carry;
    AnnotateLink(link);
    ++touched;
  }
  return touched;
}

// --- Event intake ----------------------------------------------------------------

void RunTimeEngine::PostEvent(EventMessage event) {
  if (event.timestamp == 0) event.timestamp = clock_.NowSeconds();
  queue_.Push(std::move(event));
}

bool RunTimeEngine::ProcessOne() {
  if (processing_) return false;  // Re-entrant call from a script.
  std::optional<EventMessage> event = queue_.Pop();
  if (!event.has_value()) return false;

  ++stats_.events_processed;
  if (event->origin == events::EventOrigin::kExternal) {
    ++stats_.external_events;
  }
  journal_.Record(*event);

  const std::optional<OidId> target = db_.FindObject(event->target);
  if (!target.has_value()) {
    if (options_.strict_targets) {
      throw NotFoundError("event '" + event->name + "' targets unknown OID " +
                          FormatOid(event->target));
    }
    ++stats_.dangling_events;
    Log::Warning("dropping event '" + event->name + "' for unknown OID " +
                 FormatOid(event->target));
    return true;
  }

  // One string hash per queue event; everything past this point works
  // on the SymbolId. A lookup, never an intern: a name the database has
  // no symbol for (kNoSymbol) matches no rule set and no bucket.
  const SymbolId event_sym = db_.FindSymbol(event->name);

  {
    processing_ = true;
    // One full wave: rules at the target, then link-filtered BFS.
    ProcessWaveSeeded({*target}, /*seeds_are_origin=*/true, *event, event_sym);
    processing_ = false;
  }

  DispatchPendingExecs();
  return true;
}

void RunTimeEngine::DispatchPendingExecs() {
  // The wave is complete: dispatch the wrapper scripts it launched.
  // Scripts run outside the processing window so they can create
  // objects, register links and check data in; the events they cause
  // queue up behind this one (strict FIFO is preserved).
  std::vector<ExecRequest> launches;
  launches.swap(pending_execs_);
  for (const ExecRequest& request : launches) {
    if (executor_ == nullptr) break;
    const int status = executor_->Execute(request);
    if (status != 0) {
      Log::Warning("script '" + request.script + "' exited with status " +
                   std::to_string(status));
    }
  }
}

void RunTimeEngine::DeliverSeededWave(std::vector<OidId> seeds,
                                      EventMessage event) {
  if (processing_ || seeds.empty()) return;
  if (event.timestamp == 0) event.timestamp = clock_.NowSeconds();
  const SymbolId event_sym = db_.FindSymbol(event.name);
  ++stats_.seeded_handoff_waves;
  event.origin = events::EventOrigin::kPropagated;
  {
    processing_ = true;
    ProcessWaveSeeded(std::move(seeds), /*seeds_are_origin=*/false, event,
                      event_sym);
    processing_ = false;
  }
  DispatchPendingExecs();
}

size_t RunTimeEngine::ProcessAll() {
  if (processing_) return 0;  // Re-entrant call from a script.
  size_t processed = 0;
  while (ProcessOne()) ++processed;
  return processed;
}

// --- Wave processing -----------------------------------------------------------

void RunTimeEngine::AdmitReceiver(OidId receiver, const EventMessage& event,
                                  WaveVisited& visited,
                                  std::vector<OidId>& out) {
  if (!visited.Insert(receiver.value())) return;
  if (router_ == nullptr || router_->Owns(receiver)) {
    // Owned receiver: appended unclaimed — ProcessWaveSeeded claims the
    // whole generation in one batched round before its rules run, which
    // makes delivery exactly-once across the wave (another sub-wave of
    // the same epoch may have re-entered this shard through a different
    // boundary link). The local visited probe above is just a cheap
    // pre-filter.
    out.push_back(receiver);
    return;
  }
  // Foreign shard: marked in the local visited set (so this sub-wave
  // hands it off at most once) but delivered — and claimed — remotely.
  ++stats_.handoff_receivers;
  router_->Handoff(receiver, event);
}

void RunTimeEngine::CollectReceivers(OidId source, const EventMessage& event,
                                     SymbolId event_sym, WaveVisited& visited,
                                     std::vector<OidId>& out) {
  if (options_.use_propagation_index) {
    ++stats_.index_lookups;
    const PropagationIndex::Bucket* bucket =
        index_->Receivers(source, event.direction, event_sym);
    if (bucket == nullptr) return;
    for (const PropagationIndex::Entry& entry : *bucket) {
      AdmitReceiver(entry.neighbor, event, visited, out);
    }
    return;
  }
  // Pre-index path: scan the adjacency list, filtering each link's
  // PROPAGATE list.
  if (event.direction == Direction::kDown) {
    for (const LinkId link_id : db_.OutLinks(source)) {
      ++stats_.links_scanned;
      const Link& link = db_.GetLink(link_id);
      if (link.Propagates(event.name)) {
        AdmitReceiver(link.to, event, visited, out);
      }
    }
  } else {
    for (const LinkId link_id : db_.InLinks(source)) {
      ++stats_.links_scanned;
      const Link& link = db_.GetLink(link_id);
      if (link.Propagates(event.name)) {
        AdmitReceiver(link.from, event, visited, out);
      }
    }
  }
}

void RunTimeEngine::ProcessWaveSeeded(std::vector<OidId> seeds,
                                      bool seeds_are_origin,
                                      const EventMessage& event,
                                      SymbolId event_sym) {
  ++stats_.waves_started;
  size_t extent = 0;

  // The wave runs as batched BFS generations: every receiver of the
  // current generation is collected (and de-duplicated against the
  // shared visited set, which makes cyclic link graphs and parallel
  // links terminate) before any receiver's rules run. An OID processes
  // a given wave at most once; delivery order equals the order the
  // naive per-delivery scan would produce.
  VisitedLease visited(*this);
  std::vector<OidId> batch;
  batch.reserve(seeds.size());
  for (const OidId seed : seeds) {
    if (visited.set.Insert(seed.value())) batch.push_back(seed);
  }

  // Every generation — seeds included — passes one batched
  // (epoch, OID) claim round before its rules run: two shards may hand
  // the same receiver off for one wave, and a cross-shard cycle leads a
  // wave back to OIDs it already delivered to. The claim collapses both
  // to a single delivery, exactly like the single visited set of an
  // unsharded wave, at one claim-store round per generation.
  const auto claim_batch = [&](std::vector<OidId>& generation) {
    if (router_ == nullptr || event.wave_epoch == 0 || generation.empty()) {
      return;
    }
    ++stats_.claim_batches;
    stats_.dedup_suppressed +=
        router_->ClaimSeedBatch(event.wave_epoch, generation);
  };
  claim_batch(batch);

  // Shared-payload journal key, built once per wave: per-delivery
  // journaling interns only the target block/view (seed-batch rows).
  events::EventJournal::PayloadKey journal_key;
  bool journal_key_ready = false;

  std::vector<OidId> next_batch;
  std::vector<DirectionPost> direction_posts;
  bool is_origin_batch = seeds_are_origin;
  bool truncated = false;
  while (!batch.empty() && !truncated) {
    ++stats_.wave_batches;

    // Rule phases 1-4 at every member of this generation, in order.
    for (const OidId target : batch) {
      if (extent >= options_.max_wave_deliveries) {
        truncated = true;
        ++stats_.waves_truncated;
        Log::Warning("propagation wave truncated at " + std::to_string(extent) +
                     " deliveries (event '" + event.name + "')");
        break;
      }
      ++extent;
      ++stats_.wave_deliveries;

      if (!is_origin_batch) {
        ++stats_.propagated_deliveries;
        if (options_.journal_propagated) {
          // Interned journal row off the shared payload key: no
          // EventMessage is copied or re-interned per delivery.
          if (!journal_key_ready) {
            journal_key = journal_.MakePayloadKey(event);
            journal_key_ready = true;
          }
          const MetaObject& object = db_.GetObject(target);
          journal_.RecordPropagated(journal_key, target, db_.BlockOf(object),
                                    db_.ViewOf(object), object.version);
        }
      }

      // Direction-posted events (post without a 'to' clause) start their
      // own sub-waves from this OID immediately after its rules. The
      // payload is shared across the whole wave; RunRulesAt resolves
      // per-delivery fields from `target`.
      direction_posts.clear();
      RunRulesAt(target, event, event_sym, direction_posts);

      // Direction-posted events are "directly propagated from the
      // current OID" (paper §3.2, example 2): the posting OID's rules
      // are *not* re-run; all qualifying neighbours seed ONE sub-wave so
      // shared downstream objects are delivered to once, not once per
      // link.
      for (DirectionPost& posted : direction_posts) {
        // A direction post opens its own wave scope (the unsharded
        // engine gives it a fresh visited set); under a router it gets
        // its own epoch so its deliveries dedup independently of the
        // enclosing wave's. The nested wave claims its own seed batch.
        if (router_ != nullptr) posted.event.wave_epoch = router_->MintEpoch();
        std::vector<OidId> posted_seeds;
        {
          VisitedLease seen(*this);
          CollectReceivers(target, posted.event, posted.name_sym, seen.set,
                           posted_seeds);
        }
        if (!posted_seeds.empty()) {
          posted.event.origin = events::EventOrigin::kPropagated;
          ProcessWaveSeeded(std::move(posted_seeds),
                            /*seeds_are_origin=*/false, posted.event,
                            posted.name_sym);
        }
      }
    }

    // Phase 5, batched: collect the whole next generation before any of
    // its rules run, then claim it in one round.
    next_batch.clear();
    if (!truncated) {
      for (const OidId target : batch) {
        CollectReceivers(target, event, event_sym, visited.set, next_batch);
      }
      claim_batch(next_batch);
    }
    batch.swap(next_batch);
    is_origin_batch = false;
  }

  if (extent > stats_.max_wave_extent) stats_.max_wave_extent = extent;
}

// --- Rule execution ---------------------------------------------------------------

void RunTimeEngine::RunRulesAt(OidId target, const EventMessage& event,
                               SymbolId event_sym,
                               std::vector<DirectionPost>& direction_posts) {
  if (blueprint_ == nullptr) return;
  // One cached binding + one integer-keyed lookup yields the
  // phase-partitioned actions; no string touches a name.
  const CompiledRules::RuleSet* rules =
      compiled_.Find(BindingOf(target).rules, event_sym);
  if (rules != nullptr) {
    ++stats_.rule_table_hits;
  } else {
    ++stats_.rule_table_misses;
  }

  // Phase 1: assignments.
  if (rules != nullptr) {
    for (const CompiledRules::CompiledAssign& assign : rules->assigns) {
      ExecuteAssign(target, assign, event);
    }
  }

  // Phase 2: continuous assignments are re-evaluated.
  RefreshComputedProperties(target);

  if (rules == nullptr) return;
  // Phase 3: exec and notify, in declaration order ("a script can be
  // executed (i.e. to send warnings to users, to invoke tools)").
  for (const blueprint::Action* action : rules->execs_and_notifies) {
    if (const auto* exec = std::get_if<blueprint::ActionExec>(action)) {
      ExecuteExec(target, *exec, event);
    } else if (const auto* notify =
                   std::get_if<blueprint::ActionNotify>(action)) {
      ExecuteNotify(target, *notify, event);
    }
  }
  // Phase 4: posts (posted-event names pre-interned at compile).
  for (const CompiledRules::CompiledPost& post : rules->posts) {
    ExecutePost(target, *post.action, post.event_sym, event, direction_posts);
  }
}

void RunTimeEngine::ExecuteAssign(OidId target,
                                  const CompiledRules::CompiledAssign& assign,
                                  const EventMessage& event) {
  ++stats_.assign_actions;
  // A literal (`uptodate = false`) expands without a resolver. Expand,
  // not source(): the source keeps `$$` escapes unexpanded.
  const blueprint::StringTemplate& value = assign.action->value;
  SetPropertyCounted(target, assign.property,
                     value.IsPureLiteral()
                         ? value.Expand(nullptr)
                         : value.Expand(MakeResolver(target, event)));
}

void RunTimeEngine::ExecuteExec(OidId target, const blueprint::ActionExec& act,
                                const EventMessage& event) {
  ++stats_.exec_actions;
  if (executor_ == nullptr) return;
  const blueprint::VariableResolver resolver = MakeResolver(target, event);
  ExecRequest request;
  request.script = act.script.Expand(resolver);
  request.args.reserve(act.args.size());
  for (const blueprint::StringTemplate& arg : act.args) {
    request.args.push_back(arg.Expand(resolver));
  }
  request.target = db_.OidOf(target);
  request.event = event.name;
  request.user = event.user;
  request.timestamp = clock_.NowSeconds();
  // Launched now, dispatched after the wave (see ProcessOne): a wrapper
  // script's effects must not interleave with the propagation of the
  // event that launched it.
  pending_execs_.push_back(std::move(request));
}

void RunTimeEngine::ExecuteNotify(OidId target,
                                  const blueprint::ActionNotify& act,
                                  const EventMessage& event) {
  ++stats_.notify_actions;
  if (!notification_sink_) return;
  Notification notification;
  notification.message = act.message.Expand(MakeResolver(target, event));
  notification.target = db_.OidOf(target);
  notification.event = event.name;
  notification.timestamp = clock_.NowSeconds();
  notification_sink_(notification);
}

void RunTimeEngine::ExecutePost(OidId target, const blueprint::ActionPost& act,
                                SymbolId posted_sym, const EventMessage& event,
                                std::vector<DirectionPost>& direction_posts) {
  ++stats_.post_actions;
  EventMessage posted;
  posted.name = act.event;
  posted.direction = act.direction;
  posted.arg = act.arg.Expand(MakeResolver(target, event));
  posted.user = event.user;
  posted.timestamp = clock_.NowSeconds();
  posted.origin = events::EventOrigin::kRule;

  if (act.to_view.empty()) {
    // Example 2 form: "post outofdate up" — directly propagated from the
    // current OID within this wave.
    direction_posts.push_back(DirectionPost{std::move(posted), posted_sym});
    return;
  }

  // Example 1 form: "post behavioral_sim_ok down to VerilogNetList" —
  // posted to the nearest OIDs of the named view; they go through the
  // FIFO queue like any other event (and are looked up again there).
  const std::vector<OidId> targets =
      FindNearestOfView(target, act.direction, act.to_view);
  if (targets.empty()) {
    ++stats_.post_to_misses;
    Log::Warning("post " + act.event + " to " + act.to_view +
                 ": no reachable OID of that view");
    return;
  }
  for (const OidId to : targets) {
    EventMessage copy = posted;
    copy.target = db_.OidOf(to);
    ++stats_.rule_posted_events;
    queue_.Push(std::move(copy));
  }
}

void RunTimeEngine::RefreshComputedProperties(OidId id) {
  if (!blueprint_) return;
  // The settled rule (see the header): re-evaluating would write
  // nothing.
  if (IsSettled(id)) {
    ++stats_.settled_refreshes;
    return;
  }

  const std::vector<CompiledRules::CompiledAssignment>* assignments =
      BindingOf(id).rules.assignments;

  // Continuous assignments may read each other; two passes let simple
  // one-level chains settle deterministically (document: deeper chains
  // settle on subsequent events, matching an implementation that
  // re-evaluates on every meta-data change).
  static const std::string kTrue = "true";
  static const std::string kFalse = "false";
  const EventMessage no_event;  // Continuous assignments see no $arg.
  const blueprint::VariableResolver resolver = MakeResolver(id, no_event);
  const auto pass = [&] {
    bool wrote = false;
    for (const CompiledRules::CompiledAssignment& assignment : *assignments) {
      ++stats_.reevaluations;
      const bool value = assignment.action->expr.EvaluateBool(resolver);
      wrote |= SetPropertyCounted(id, assignment.property,
                                  value ? kTrue : kFalse);
    }
    return wrote;
  };
  // Pass 2 runs only after pass 1 wrote: with unchanged inputs it would
  // write exactly what pass 1 did, i.e. nothing. A pass that writes
  // nothing is a fixed point.
  if (pass() && pass()) return;
  for (const CompiledRules::CompiledAssignment& assignment : *assignments) {
    if (assignment.action->expr.ReadsVariable("date")) return;  // Clock-driven.
  }
  OidBinding& binding = SlotOf(id);
  binding.settled_generation = compiled_.generation();
  binding.settled_revision = db_.GetObject(id).revision;
}

bool RunTimeEngine::IsSettled(OidId id) const {
  if (blueprint_ == nullptr || id.value() >= bindings_.size()) return false;
  const OidBinding& binding = bindings_[id.value()];
  return binding.settled_generation == compiled_.generation() &&
         binding.settled_revision == db_.GetObject(id).revision;
}

blueprint::VariableResolver RunTimeEngine::MakeResolver(
    OidId target, const EventMessage& event) const {
  // The resolver borrows the event (all callers expand synchronously)
  // and reads properties live from the database so assignment chains
  // observe earlier writes. Per-delivery fields ($oid, $block, $view,
  // $version) come from the delivery target's meta-object — the shared
  // wave payload's own target is the wave origin, not this delivery.
  const EventMessage* message = &event;
  return [this, target, message](std::string_view name) -> std::string {
    if (name == "arg") return message->arg;
    if (name == "user") return message->user;
    if (name == "event") return message->name;
    if (name == "dir") return events::DirectionName(message->direction);
    if (name == "date") return SimClock::FormatDate(clock_.NowSeconds());
    const MetaObject& object = db_.GetObject(target);
    if (name == "oid") return metadb::FormatOidWire(db_.OidOf(object));
    if (name == "OID") return metadb::FormatOid(db_.OidOf(object));
    if (name == "block") return db_.BlockOf(object);
    if (name == "view") return db_.ViewOf(object);
    if (name == "version") return std::to_string(object.version);
    if (const std::string* value = db_.FindProperty(object, name)) {
      return *value;
    }
    if (name == "owner") return db_.SymbolText(object.created_by);
    return std::string();
  };
}

std::vector<OidId> RunTimeEngine::FindNearestOfView(OidId start,
                                                    Direction direction,
                                                    std::string_view view) {
  // Breadth-first search in the event direction, not gated by PROPAGATE:
  // 'post ... to <View>' names its target explicitly, it does not ask
  // permission of the links in between. The nearest frontier containing
  // OIDs of the requested view wins.
  std::deque<std::pair<OidId, size_t>> frontier;
  VisitedLease visited(*this);
  std::vector<OidId> found;
  size_t found_depth = 0;

  frontier.emplace_back(start, 0);
  visited.set.Insert(start.value());

  while (!frontier.empty()) {
    const auto [current, depth] = frontier.front();
    frontier.pop_front();
    if (!found.empty() && depth > found_depth) break;

    if (current != start && db_.ViewOf(db_.GetObject(current)) == view) {
      if (found.empty()) found_depth = depth;
      found.push_back(current);
      continue;  // Don't search beyond a hit.
    }

    const auto expand = [&](OidId next) {
      if (visited.set.Insert(next.value())) {
        frontier.emplace_back(next, depth + 1);
      }
    };
    if (direction == Direction::kDown) {
      for (const LinkId link_id : db_.OutLinks(current)) {
        expand(db_.GetLink(link_id).to);
      }
    } else {
      for (const LinkId link_id : db_.InLinks(current)) {
        expand(db_.GetLink(link_id).from);
      }
    }
  }
  return found;
}

bool RunTimeEngine::SetPropertyCounted(OidId id, SymbolId name,
                                       std::string_view value) {
  if (!db_.SetProperty(id, name, value)) return false;
  ++stats_.property_writes;
  return true;
}

}  // namespace damocles::engine
