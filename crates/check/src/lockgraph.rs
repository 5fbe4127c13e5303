//! Whole-workspace concurrency analyzer: the static lock-order graph,
//! the hold-across-flush proof, atomics discipline, and the
//! blocking-in-event-loop audit.
//!
//! PR 7's commit-path speedup rests on a two-level lock order — flush
//! fences acquired *before* shard mutexes, and the shard mutex
//! *released* across the device flush — but until now that discipline
//! lived in comments and one regex lint. This module enforces it
//! structurally, over the per-function models [`crate::syntax`]
//! extracts:
//!
//! 1. **Lock-order graph** (`lock-order-graph`) — every acquisition
//!    while another guard is live adds a `held → acquired` edge, with
//!    call edges followed interprocedurally (what a callee acquires is
//!    charged to the caller's held set). The graph must be acyclic and
//!    every edge must descend the declared level order
//!    `flush_fence(0) ≺ gtm_shard(1) ≺ front aux(2) ≺ engine/WAL/
//!    recorder internals(3)`; a cycle or an up-level edge is reported
//!    with its witness path.
//! 2. **Multi-shard paths** (`multi-shard-path`) — acquiring a shard
//!    mutex while a shard guard is already live is legal only inside
//!    `lock_shards_ascending`; any other path is reported.
//! 3. **Hold-across-flush** (`hold-across-flush`) — no shard guard may
//!    be live at any call that reaches a `pstm-lockgraph: flush-point`
//!    function (`Wal::append_batch`, `Database::apply_write_set`, and
//!    the SST executors that wrap them). Fence guards across the flush
//!    are required, shard guards are the lost-update window PR 7 closed.
//! 4. **Atomics discipline** (`atomics-relaxed`) — `Ordering::Relaxed`
//!    may appear only in the declared seam files (prof slots, tracer
//!    thread tags, the TxnId allocator), each site covered by a nearby
//!    `relaxed:` justification comment, and seam files must pair
//!    Acquire with Release (AcqRel counts as both).
//! 5. **Blocking context** (`blocking-context`) — functions tagged
//!    `pstm-lockgraph: event-loop` (the future async front-end's hot
//!    paths, ROADMAP item 1) must not reach mutex acquisition,
//!    `thread::sleep`, or file I/O; violations carry the offending call
//!    path.
//!
//! All five rules share `pstm-check.allow` (entries `<rule>
//! <path>[::<fn>]`), and this analyzer runs its own stale pass over its
//! rule names so a new rule's allowlist section starts empty-enforced.
//! The graph exports as DOT in the same dialect as
//! `pstm_obs::dot::waits_for_dot`, so the static order can be eyeballed
//! against the runtime waits-for snapshots `pstm_top` captures.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::path::Path;

use crate::lint::Allowlist;
use crate::syntax::{self, AccessKind, Event, FnModel, SourceFile};

/// Rule names owned by this analyzer (allowlist sections + stale pass).
pub const RULE_NAMES: &[&str] = &[
    "lock-order-graph",
    "multi-shard-path",
    "hold-across-flush",
    "atomics-relaxed",
    "blocking-context",
    "lockgraph-stale-allowlist",
];

/// The lockgraph rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LgRule {
    /// Cycle or up-level edge in the lock-order graph.
    OrderGraph,
    /// Shard mutex acquired while a shard guard is live, outside
    /// `lock_shards_ascending`.
    MultiShard,
    /// Shard guard live across a flush-point call.
    HoldAcrossFlush,
    /// `Ordering::Relaxed` outside a declared seam, unjustified in one,
    /// or unpaired Acquire/Release in a seam file.
    Atomics,
    /// Blocking operation reachable from an `event-loop`-tagged fn.
    Blocking,
    /// Allowlist entry for a lockgraph rule that matched nothing.
    Stale,
}

impl LgRule {
    /// Stable rule name, as used in the allowlist file and the report.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LgRule::OrderGraph => "lock-order-graph",
            LgRule::MultiShard => "multi-shard-path",
            LgRule::HoldAcrossFlush => "hold-across-flush",
            LgRule::Atomics => "atomics-relaxed",
            LgRule::Blocking => "blocking-context",
            LgRule::Stale => "lockgraph-stale-allowlist",
        }
    }
}

impl fmt::Display for LgRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One analyzer finding, with the witness path that makes it actionable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LgViolation {
    /// Which rule fired.
    pub rule: LgRule,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line (0 for file-level findings).
    pub line: usize,
    /// Enclosing function, when there is one.
    pub func: Option<String>,
    /// One-line description of the defect.
    pub detail: String,
    /// Witness: the acquisition/call chain proving the finding.
    pub path: Vec<String>,
}

impl fmt::Display for LgViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\t{}:{}", self.rule, self.file, self.line)?;
        if let Some(func) = &self.func {
            write!(f, "\tfn {func}")?;
        }
        write!(f, "\t{}", self.detail)?;
        for step in &self.path {
            write!(f, "\n    via {step}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Lock classes and the declared level order
// ---------------------------------------------------------------------

/// Declared atomics seams: the only files where `Ordering::Relaxed` is
/// legal (each site still needs a `relaxed:` justification comment).
pub const ATOMIC_SEAM_FILES: &[&str] =
    &["crates/obs/src/prof.rs", "crates/obs/src/tracer.rs", "crates/types/src/ids.rs"];

/// Helpers that return guards: `(fn name, lock class, guard type)`.
/// `lock_shards_ascending` is the *only* sanctioned multi-shard path.
const GUARD_HELPERS: &[(&str, &str, &str)] = &[
    ("lock_shards_ascending", "gtm_shard", "Gtm"),
    ("lock_shard_for", "gtm_shard", "Gtm"),
    ("lock_flush_fences", "flush_fence", ""),
    ("lock_fence", "flush_fence", ""),
];

/// Last-resort receiver typing by the workspace's stable field/binding
/// naming conventions, used only when structural inference (params,
/// constructors, guard helpers) has nothing. Pinned by tests; extend it
/// when a new conventional name appears rather than letting the call
/// fall into the ambiguous-name bucket.
const FIELD_TYPES: &[(&str, &str)] = &[
    ("wal", "Wal"),
    ("db", "Database"),
    ("batch", "SstBatch"),
    ("sst", "Sst"),
    ("rec", "Recorder"),
    ("gtm", "Gtm"),
    ("front", "ShardedFront"),
];

/// What a guard of `class` dereferences to, for resolving calls made
/// through the guard (`shard.lock().tick()` → `Gtm::tick`).
fn guard_deref(class: &str) -> Option<&'static str> {
    match class {
        "gtm_shard" => Some("Gtm"),
        "engine_tracer" => Some("Tracer"),
        _ => None,
    }
}

/// Maps a lock site to its class, by site file and final receiver
/// identifier. Receivers in `crates/front` named `shards`/`shard`/`s`
/// are all shard mutexes (loop/closure variables over the shard vec);
/// `.read()`/`.write()` count only on the engine's known `RwLock`
/// fields, so `io::Read`/`io::Write` calls never register.
fn classify(file: &str, recv: &str, kind: AccessKind) -> Option<String> {
    let front = file.starts_with("crates/front/");
    match kind {
        AccessKind::Lock => Some(
            match () {
                () if recv == "flush_fences" => "flush_fence",
                () if front && matches!(recv, "shards" | "shard" | "s") => "gtm_shard",
                () if front && recv == "groups" => "group_queue",
                () if front && recv == "mail" => "mail",
                () if front && matches!(recv, "slot" | "member_slot") => "commit_slot",
                () if front && recv == "fault_hook" => "front_fault_hook",
                () if front && recv == "recorder" => "front_recorder",
                () if file == "crates/obs/src/tracer.rs" && recv == "inner" => "tracer_inner",
                () if file == "crates/obs/src/sink.rs" && recv == "inner" => "sink_inner",
                () if file.starts_with("crates/obs/") && recv == "buf" => "obs_buf",
                () if file == "crates/obs/src/recorder.rs" && recv == "dev" => "recorder_dev",
                () if file == "crates/obs/src/prof.rs" && recv == "SLOTS" => "prof_slots",
                () if file.starts_with("crates/faults/") && recv == "state" => "faults_state",
                () => return Some(format!("mx_{}", sanitize(recv))),
            }
            .to_string(),
        ),
        AccessKind::Read | AccessKind::Write if file == "crates/storage/src/engine.rs" => {
            match recv {
                "inner" => Some("engine_inner"),
                "tracer" => Some("engine_tracer"),
                "apply_latency" => Some("engine_latency"),
                "fault_hook" => Some("engine_fault_hook"),
                _ => None,
            }
            .map(str::to_string)
        }
        AccessKind::Read | AccessKind::Write => None,
    }
}

/// The declared level of a class (`None` = unleveled: cycle-checked but
/// free to sit anywhere in the order).
#[must_use]
pub fn class_level(class: &str) -> Option<u8> {
    match class {
        "flush_fence" => Some(0),
        "gtm_shard" => Some(1),
        "group_queue" | "mail" | "commit_slot" | "front_fault_hook" | "front_recorder" => Some(2),
        "engine_inner" | "engine_tracer" | "engine_latency" | "engine_fault_hook"
        | "tracer_inner" | "sink_inner" | "obs_buf" | "recorder_dev" | "prof_slots"
        | "faults_state" => Some(3),
        _ => None,
    }
}

fn sanitize(s: &str) -> String {
    let cleaned: String =
        s.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect();
    if cleaned.is_empty() {
        "anon".to_string()
    } else {
        cleaned
    }
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

/// The outcome of a lockgraph run.
#[derive(Clone, Debug)]
pub struct LockgraphReport {
    /// All findings, sorted by `(file, line, rule)`.
    pub violations: Vec<LgViolation>,
    /// Every lock class seen.
    pub classes: BTreeSet<String>,
    /// Lock-order edges with one witness each.
    pub edges: BTreeMap<(String, String), String>,
    /// Discovered `flush-point` functions (`file::fn`).
    pub flush_points: Vec<String>,
    /// Functions tagged `event-loop`.
    pub event_loop_fns: Vec<String>,
    /// Number of files analyzed.
    pub files_scanned: usize,
    /// Number of functions analyzed.
    pub fns_scanned: usize,
}

impl LockgraphReport {
    /// True when nothing fired (stale allowlist entries included).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The diff-friendly report: sorted violations with witness paths,
    /// then a one-line footer.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "pstm-check lockgraph: {} violation(s); {} lock class(es), {} edge(s), \
             {} flush point(s) over {} fn(s) in {} file(s)\n",
            self.violations.len(),
            self.classes.len(),
            self.edges.len(),
            self.flush_points.len(),
            self.fns_scanned,
            self.files_scanned,
        ));
        out
    }

    /// The lock-order graph as DOT, same dialect as
    /// `pstm_obs::dot::waits_for_dot`: sorted nodes, sorted `a -> b;`
    /// edges, `rankdir=LR`.
    #[must_use]
    pub fn dot(&self) -> String {
        let mut out = String::from("digraph lock_order {\n  rankdir=LR;\n");
        for class in &self.classes {
            out.push_str(&format!("  {class};\n"));
        }
        for (from, to) in self.edges.keys() {
            out.push_str(&format!("  {from} -> {to};\n"));
        }
        out.push_str("}\n");
        out
    }
}

// ---------------------------------------------------------------------
// Function summaries (interprocedural closure)
// ---------------------------------------------------------------------

#[derive(Clone, Debug, Default)]
struct Summary {
    /// Class → acquisition path (call chain ending at the lock site).
    acquires: BTreeMap<String, Vec<String>>,
    /// Path to a flush point, when one is reachable.
    flush: Option<Vec<String>>,
    /// Path to a blocking operation, when one is reachable.
    blocking: Option<Vec<String>>,
}

struct Analyzer<'a> {
    files: &'a [SourceFile],
    /// Flat function list as `(file index, fn index)`.
    fns: Vec<(usize, usize)>,
    by_name: HashMap<String, Vec<usize>>,
    by_type_name: HashMap<(String, String), Vec<usize>>,
    impl_types: HashSet<String>,
    summaries: Vec<Option<Summary>>,
    envs: Vec<HashMap<String, String>>,
}

fn fn_of(files: &[SourceFile], id: (usize, usize)) -> (&SourceFile, &FnModel) {
    let f = &files[id.0];
    (f, &f.fns[id.1])
}

impl<'a> Analyzer<'a> {
    fn new(files: &'a [SourceFile]) -> Self {
        let mut fns = Vec::new();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_type_name: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut impl_types = HashSet::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                let idx = fns.len();
                fns.push((fi, gi));
                by_name.entry(f.name.clone()).or_default().push(idx);
                if let Some(t) = &f.impl_type {
                    impl_types.insert(t.clone());
                    by_type_name.entry((t.clone(), f.name.clone())).or_default().push(idx);
                }
            }
        }
        let n = fns.len();
        let mut a = Analyzer {
            files,
            fns,
            by_name,
            by_type_name,
            impl_types,
            summaries: vec![None; n],
            envs: Vec::with_capacity(n),
        };
        for i in 0..n {
            let env = a.build_env(i);
            a.envs.push(env);
        }
        a
    }

    /// Binding → type map for one function: parameter types (only when
    /// the type is a single identifier), constructor calls
    /// (`let sst = Sst::new(..)`), guard-returning helpers, and
    /// `for`-loops over guard collections.
    fn build_env(&self, idx: usize) -> HashMap<String, String> {
        let (file, f) = fn_of(self.files, self.fns[idx]);
        let path = file.path.clone();
        let mut env = HashMap::new();
        for (name, tys) in &f.params {
            if let [only] = tys.as_slice() {
                if self.impl_types.contains(only) {
                    env.insert(name.clone(), only.clone());
                }
            }
        }
        for e in &f.body {
            match e {
                Event::Lock { recv, kind, binding: Some(b), .. } => {
                    // A bound guard types as what it dereferences to.
                    if let Some(ty) = classify(&path, recv, *kind).as_deref().and_then(guard_deref)
                    {
                        env.insert(b.clone(), ty.to_string());
                    }
                }
                Event::Call { name, qual: Some(q), binding: Some(b), .. }
                    if self.impl_types.contains(q)
                        && (name.starts_with("new") || name == "of" || name == "with_capacity") =>
                {
                    env.insert(b.clone(), q.clone());
                }
                Event::Call { name, binding: Some(b), .. } => {
                    if let Some((_, _, ty)) = GUARD_HELPERS.iter().find(|(h, _, _)| h == name) {
                        if !ty.is_empty() {
                            env.insert(b.clone(), (*ty).to_string());
                        }
                    }
                }
                Event::ForBind { bindings, iter, .. } => {
                    let over_guards = iter
                        .iter()
                        .any(|id| env.get(id).is_some_and(|t| t == "Gtm") || id == "shards");
                    if over_guards {
                        for b in bindings {
                            env.insert(b.clone(), "Gtm".to_string());
                        }
                    }
                }
                _ => {}
            }
        }
        env
    }

    /// Resolves a call to candidate workspace functions. Typed receivers
    /// narrow to the impl; a typed miss means a non-workspace method
    /// (e.g. `Vec::push`) and resolves to nothing. Untyped receivers
    /// resolve only when the name is unambiguous in the workspace —
    /// ambiguous untyped calls resolve to nothing (the documented
    /// under-approximation; FIELD_TYPES keeps the hot names typed).
    fn resolve(
        &self,
        caller: usize,
        name: &str,
        recv: Option<&str>,
        qual: Option<&str>,
        via_guard: bool,
    ) -> Vec<usize> {
        if let Some(q) = qual {
            if self.impl_types.contains(q) {
                return self
                    .by_type_name
                    .get(&(q.to_string(), name.to_string()))
                    .cloned()
                    .unwrap_or_default();
            }
            // `thread::sleep`, `Mutex::new` … — not ours.
            return Vec::new();
        }
        if let Some(r) = recv {
            let (file, f) = fn_of(self.files, self.fns[caller]);
            let ty = if r == "self" {
                f.impl_type.clone()
            } else if let Some((_, _, t)) = GUARD_HELPERS.iter().find(|(h, _, _)| h == &r) {
                // `self.front.lock_shard_for(..)?.tick()` — the receiver
                // is the helper's guard.
                if t.is_empty() {
                    return Vec::new();
                } else {
                    Some((*t).to_string())
                }
            } else if via_guard {
                // Call through a freshly acquired guard: the class's
                // deref type or nothing (std containers behind a mutex).
                let class = classify(&file.path, r, AccessKind::Lock)
                    .or_else(|| classify(&file.path, r, AccessKind::Write));
                match class.as_deref().and_then(guard_deref) {
                    Some(t) => Some(t.to_string()),
                    None => return Vec::new(),
                }
            } else {
                self.envs[caller].get(r).cloned().or_else(|| {
                    FIELD_TYPES.iter().find(|(n, _)| n == &r).map(|(_, t)| (*t).to_string())
                })
            };
            if let Some(t) = ty {
                return self.by_type_name.get(&(t, name.to_string())).cloned().unwrap_or_default();
            }
            let all = self.by_name.get(name).cloned().unwrap_or_default();
            return if all.len() == 1 { all } else { Vec::new() };
        }
        // A local closure shadows every workspace fn of its name; its
        // body is already part of the caller's own events.
        let (_, f) = fn_of(self.files, self.fns[caller]);
        if f.body.iter().any(|e| matches!(e, Event::ClosureBind { name: c, .. } if c == name)) {
            return Vec::new();
        }
        // Free call: prefer free functions, fall back to any.
        let all = self.by_name.get(name).cloned().unwrap_or_default();
        let free: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| fn_of(self.files, self.fns[i]).1.impl_type.is_none())
            .collect();
        if free.is_empty() {
            all
        } else {
            free
        }
    }

    /// Computes (memoized) what `idx` acquires/reaches, transitively.
    fn summary(&mut self, idx: usize, stack: &mut Vec<usize>) -> Summary {
        if let Some(s) = &self.summaries[idx] {
            return s.clone();
        }
        if stack.contains(&idx) {
            return Summary::default(); // recursion: fixpoint-free under-approx
        }
        stack.push(idx);
        let (file, f) = {
            let (file, f) = fn_of(self.files, self.fns[idx]);
            (file.path.clone(), f.clone())
        };
        let mut s = Summary::default();
        if f.tags.iter().any(|t| t == "flush-point") {
            s.flush = Some(vec![format!("{}:{} fn {} [flush-point]", file, f.line, qual_name(&f))]);
        }
        for e in &f.body {
            match e {
                Event::Lock { recv, kind, line, .. } => {
                    if let Some(class) = classify(&file, recv, *kind) {
                        let site = format!("{file}:{line} fn {} acquires {class}", qual_name(&f));
                        s.acquires.entry(class).or_insert_with(|| vec![site.clone()]);
                        s.blocking.get_or_insert_with(|| vec![site]);
                    }
                }
                Event::Call { name, recv, via_guard, qual, line, .. } => {
                    let site = format!("{file}:{line} fn {} calls {name}", qual_name(&f));
                    if let Some((_, class, _)) = GUARD_HELPERS.iter().find(|(h, _, _)| h == name) {
                        s.acquires
                            .entry((*class).to_string())
                            .or_insert_with(|| vec![site.clone()]);
                        s.blocking.get_or_insert_with(|| vec![site.clone()]);
                        continue;
                    }
                    if is_builtin_blocking(name, qual.as_deref()) {
                        s.blocking.get_or_insert_with(|| vec![site.clone()]);
                    }
                    for callee in
                        self.resolve(idx, name, recv.as_deref(), qual.as_deref(), *via_guard)
                    {
                        let sub = self.summary(callee, stack);
                        for (class, path) in sub.acquires {
                            s.acquires.entry(class).or_insert_with(|| {
                                let mut p = vec![site.clone()];
                                p.extend(path.clone());
                                p
                            });
                        }
                        if s.flush.is_none() {
                            if let Some(path) = sub.flush {
                                let mut p = vec![site.clone()];
                                p.extend(path);
                                s.flush = Some(p);
                            }
                        }
                        if s.blocking.is_none() {
                            if let Some(path) = sub.blocking {
                                let mut p = vec![site.clone()];
                                p.extend(path);
                                s.blocking = Some(p);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        stack.pop();
        self.summaries[idx] = Some(s.clone());
        s
    }
}

fn qual_name(f: &FnModel) -> String {
    match &f.impl_type {
        Some(t) => format!("{t}::{}", f.name),
        None => f.name.clone(),
    }
}

/// Blocking operations outside the workspace: `thread::sleep` and file
/// I/O entry points.
fn is_builtin_blocking(name: &str, qual: Option<&str>) -> bool {
    match name {
        "sleep" => matches!(qual, Some("thread") | Some("std")),
        "sync_data" | "sync_all" | "read_to_string" | "write_all" | "create_dir_all"
        | "remove_file" | "rename" | "copy" => true,
        "open" | "create" => matches!(qual, Some("File") | Some("OpenOptions") | Some("fs")),
        _ => false,
    }
}

// ---------------------------------------------------------------------
// The analysis proper
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct LiveGuard {
    class: String,
    binding: Option<String>,
    depth: usize,
    line: usize,
    /// Depth of a branch-local `drop(g)`: the guard is dead inside that
    /// branch but revives when it closes (the branch returns; on the
    /// fall-through path the guard is still held).
    suspended_at: Option<usize>,
}

impl LiveGuard {
    fn active(&self) -> bool {
        self.suspended_at.is_none()
    }
}

/// Runs the full analysis over pre-parsed sources with a caller-supplied
/// allowlist (fixtures construct sources in memory).
pub fn analyze(files: &[SourceFile], allow: &mut Allowlist) -> LockgraphReport {
    let mut az = Analyzer::new(files);
    let mut violations: Vec<LgViolation> = Vec::new();
    let mut classes: BTreeSet<String> = BTreeSet::new();
    let mut edges: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut edge_paths: HashMap<(String, String), Vec<String>> = HashMap::new();
    let mut flush_points = Vec::new();
    let mut event_loop_fns = Vec::new();
    let mut fns_scanned = 0usize;

    for idx in 0..az.fns.len() {
        let (file, f) = {
            let (file, f) = fn_of(az.files, az.fns[idx]);
            (file.path.clone(), f.clone())
        };
        fns_scanned += 1;
        // A tag is its first word; anything after is inline justification
        // (`// pstm-lockgraph: event-loop — routing hot path`).
        if f.tags.iter().any(|t| t.split_whitespace().next() == Some("flush-point")) {
            flush_points.push(format!("{file}::{}", qual_name(&f)));
        }
        if f.tags.iter().any(|t| t.split_whitespace().next() == Some("event-loop")) {
            event_loop_fns.push(format!("{file}::{}", qual_name(&f)));
            let s = az.summary(idx, &mut Vec::new());
            if let Some(path) = s.blocking {
                violations.push(LgViolation {
                    rule: LgRule::Blocking,
                    file: file.clone(),
                    line: f.line,
                    func: Some(f.name.clone()),
                    detail: "event-loop context reaches a blocking operation".to_string(),
                    path,
                });
            }
        }

        // Liveness walk: record order edges and the per-site rules.
        let is_multi_helper = f.name == "lock_shards_ascending";
        let mut live: Vec<LiveGuard> = Vec::new();
        let mut depth = 0usize;
        for e in &f.body {
            match e {
                Event::Open(_) => depth += 1,
                Event::Close(_) => {
                    depth = depth.saturating_sub(1);
                    live.retain(|g| g.depth <= depth);
                    for g in &mut live {
                        if g.suspended_at.is_some_and(|d| d > depth) {
                            g.suspended_at = None;
                        }
                    }
                }
                Event::Semi(_) => {
                    live.retain(|g| g.binding.is_some() || g.depth < depth);
                }
                Event::DropVar { name, .. } => {
                    if let Some(pos) = live.iter().rposition(|g| g.binding.as_deref() == Some(name))
                    {
                        if live[pos].depth < depth {
                            live[pos].suspended_at = Some(depth);
                        } else {
                            live.remove(pos);
                        }
                    }
                }
                Event::Lock { recv, kind, binding, line } => {
                    let Some(class) = classify(&file, recv, *kind) else { continue };
                    classes.insert(class.clone());
                    let site = format!("{file}:{line} fn {}", qual_name(&f));
                    for g in live.iter().filter(|g| g.active()) {
                        note_edge(
                            &mut edges,
                            &mut edge_paths,
                            &mut classes,
                            &g.class,
                            &class,
                            &site,
                            vec![format!("{site} acquires {class} (direct)")],
                        );
                        check_held_pair(
                            &mut violations,
                            &file,
                            *line,
                            &f.name,
                            g,
                            &class,
                            is_multi_helper,
                            &[format!(
                                "{site} acquires {class} while {} held (from line {})",
                                g.class, g.line
                            )],
                        );
                    }
                    live.push(LiveGuard {
                        class,
                        binding: binding.clone(),
                        depth,
                        line: *line,
                        suspended_at: None,
                    });
                }
                Event::Call { name, recv, via_guard, qual, binding, line } => {
                    let site = format!("{file}:{line} fn {}", qual_name(&f));
                    if let Some((_, class, _)) = GUARD_HELPERS.iter().find(|(h, _, _)| h == name) {
                        let class = (*class).to_string();
                        classes.insert(class.clone());
                        for g in live.iter().filter(|g| g.active()) {
                            note_edge(
                                &mut edges,
                                &mut edge_paths,
                                &mut classes,
                                &g.class,
                                &class,
                                &site,
                                vec![format!("{site} calls {name} acquiring {class}")],
                            );
                            check_held_pair(
                                &mut violations,
                                &file,
                                *line,
                                &f.name,
                                g,
                                &class,
                                is_multi_helper,
                                &[format!(
                                    "{site} calls {name} acquiring {class} while {} held \
                                     (from line {})",
                                    g.class, g.line
                                )],
                            );
                        }
                        live.push(LiveGuard {
                            class,
                            binding: binding.clone(),
                            depth,
                            line: *line,
                            suspended_at: None,
                        });
                        continue;
                    }
                    let callees =
                        az.resolve(idx, name, recv.as_deref(), qual.as_deref(), *via_guard);
                    for callee in callees {
                        let sub = az.summary(callee, &mut Vec::new());
                        for (class, path) in &sub.acquires {
                            classes.insert(class.clone());
                            for g in live.iter().filter(|g| g.active()) {
                                let mut witness = vec![format!("{site} calls {name}")];
                                witness.extend(path.iter().cloned());
                                note_edge(
                                    &mut edges,
                                    &mut edge_paths,
                                    &mut classes,
                                    &g.class,
                                    class,
                                    &site,
                                    witness.clone(),
                                );
                                check_held_pair(
                                    &mut violations,
                                    &file,
                                    *line,
                                    &f.name,
                                    g,
                                    class,
                                    is_multi_helper,
                                    &witness,
                                );
                            }
                        }
                        if let Some(flush_path) = &sub.flush {
                            if let Some(g) =
                                live.iter().find(|g| g.active() && g.class == "gtm_shard")
                            {
                                let mut witness =
                                    vec![format!("{site} holds gtm_shard (from line {})", g.line)];
                                witness.extend(flush_path.iter().cloned());
                                violations.push(LgViolation {
                                    rule: LgRule::HoldAcrossFlush,
                                    file: file.clone(),
                                    line: *line,
                                    func: Some(f.name.clone()),
                                    detail: format!(
                                        "shard MutexGuard live across flush call `{name}`"
                                    ),
                                    path: witness,
                                });
                            }
                        }
                    }
                }
                Event::Rebind { name, depth: let_depth } => {
                    // A guard bound by a block-valued let escapes its
                    // acquisition block; it now dies with the let's scope.
                    if let Some(g) =
                        live.iter_mut().rev().find(|g| g.binding.as_deref() == Some(name))
                    {
                        g.depth = *let_depth;
                    }
                }
                Event::ForBind { .. } | Event::ClosureBind { .. } | Event::Atomic { .. } => {}
            }
        }
    }

    // Atomics discipline.
    audit_atomics(files, &mut violations);

    // Graph checks: cycles (levels were checked per edge).
    if let Some(cycle) = find_cycle(&edges) {
        let mut path = Vec::new();
        for pair in cycle.windows(2) {
            let key = (pair[0].clone(), pair[1].clone());
            path.push(format!("{} -> {} ({})", key.0, key.1, edges[&key]));
        }
        violations.push(LgViolation {
            rule: LgRule::OrderGraph,
            file: String::new(),
            line: 0,
            func: None,
            detail: format!("lock-order graph has a cycle: {}", cycle.join(" -> ")),
            path,
        });
    }
    for ((from, to), site) in &edges {
        if let (Some(a), Some(b)) = (class_level(from), class_level(to)) {
            if b < a {
                violations.push(LgViolation {
                    rule: LgRule::OrderGraph,
                    file: site_file(site),
                    line: site_line(site),
                    func: None,
                    detail: format!(
                        "edge {from} -> {to} ascends the declared order (level {a} -> {b})"
                    ),
                    path: edge_paths.get(&(from.clone(), to.clone())).cloned().unwrap_or_default(),
                });
            }
        }
    }

    // Allowlist + its stale pass (this analyzer owns its rule names).
    violations.retain(|v| !allow.allows_name(v.rule.name(), &v.file, v.func.as_deref()));
    for (line, entry) in allow.stale_in(RULE_NAMES) {
        violations.push(LgViolation {
            rule: LgRule::Stale,
            file: "pstm-check.allow".to_string(),
            line,
            func: None,
            detail: format!("{entry} matches nothing — remove it"),
            path: Vec::new(),
        });
    }

    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    violations.dedup();
    flush_points.sort();
    event_loop_fns.sort();
    LockgraphReport {
        violations,
        classes,
        edges,
        flush_points,
        event_loop_fns,
        files_scanned: files.len(),
        fns_scanned,
    }
}

/// Records an order edge (first witness wins, deterministically).
#[allow(clippy::too_many_arguments)]
fn note_edge(
    edges: &mut BTreeMap<(String, String), String>,
    edge_paths: &mut HashMap<(String, String), Vec<String>>,
    classes: &mut BTreeSet<String>,
    from: &str,
    to: &str,
    site: &str,
    witness: Vec<String>,
) {
    if from == to {
        return; // same-class pairs are the multi-shard rule's business
    }
    classes.insert(from.to_string());
    classes.insert(to.to_string());
    let key = (from.to_string(), to.to_string());
    edges.entry(key.clone()).or_insert_with(|| site.to_string());
    edge_paths.entry(key).or_insert(witness);
}

/// The per-acquisition rules: multi-shard outside the helper.
#[allow(clippy::too_many_arguments)]
fn check_held_pair(
    violations: &mut Vec<LgViolation>,
    file: &str,
    line: usize,
    func: &str,
    held: &LiveGuard,
    acquired: &str,
    is_multi_helper: bool,
    witness: &[String],
) {
    if held.class == "gtm_shard" && acquired == "gtm_shard" && !is_multi_helper {
        violations.push(LgViolation {
            rule: LgRule::MultiShard,
            file: file.to_string(),
            line,
            func: Some(func.to_string()),
            detail: "shard mutex acquired while a shard guard is live, outside \
                     lock_shards_ascending"
                .to_string(),
            path: witness.to_vec(),
        });
    }
}

/// `Ordering::Relaxed` only in declared seams, justified; seam files
/// must pair Acquire with Release (AcqRel counts as both).
fn audit_atomics(files: &[SourceFile], violations: &mut Vec<LgViolation>) {
    for file in files {
        let in_seam = ATOMIC_SEAM_FILES.contains(&file.path.as_str());
        let mut acquires = 0usize;
        let mut releases = 0usize;
        for f in &file.fns {
            let span_end = f
                .body
                .iter()
                .map(|e| match e {
                    Event::Open(l) | Event::Close(l) | Event::Semi(l) => *l,
                    Event::Lock { line, .. }
                    | Event::Call { line, .. }
                    | Event::DropVar { line, .. }
                    | Event::ForBind { line, .. }
                    | Event::ClosureBind { line, .. }
                    | Event::Atomic { line, .. } => *line,
                    Event::Rebind { .. } => 0,
                })
                .max()
                .unwrap_or(f.line);
            let justified = file.comments.iter().any(|c| {
                c.line + 8 >= f.line
                    && c.line <= span_end
                    && c.text.to_ascii_lowercase().contains("relaxed")
            });
            for e in &f.body {
                let Event::Atomic { ordering, line } = e else { continue };
                match ordering.as_str() {
                    "Relaxed" if !in_seam => violations.push(LgViolation {
                        rule: LgRule::Atomics,
                        file: file.path.clone(),
                        line: *line,
                        func: Some(f.name.clone()),
                        detail: "Ordering::Relaxed outside the declared seam files".to_string(),
                        path: vec![format!("declared seams: {}", ATOMIC_SEAM_FILES.join(", "))],
                    }),
                    "Relaxed" if !justified => violations.push(LgViolation {
                        rule: LgRule::Atomics,
                        file: file.path.clone(),
                        line: *line,
                        func: Some(f.name.clone()),
                        detail: "in-seam Ordering::Relaxed lacks a `relaxed:` justification \
                                 comment on the function"
                            .to_string(),
                        path: Vec::new(),
                    }),
                    "Acquire" => acquires += 1,
                    "Release" => releases += 1,
                    "AcqRel" => {
                        acquires += 1;
                        releases += 1;
                    }
                    _ => {}
                }
            }
        }
        if in_seam && ((acquires > 0) != (releases > 0)) {
            violations.push(LgViolation {
                rule: LgRule::Atomics,
                file: file.path.clone(),
                line: 0,
                func: None,
                detail: format!(
                    "unpaired acquire/release in seam file: {acquires} Acquire vs {releases} \
                     Release"
                ),
                path: Vec::new(),
            });
        }
    }
}

/// Finds any cycle in the edge set; returns it as `[a, b, …, a]`.
fn find_cycle(edges: &BTreeMap<(String, String), String>) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut done: HashSet<&str> = HashSet::new();
    for &start in adj.keys() {
        if done.contains(start) {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        let mut on_path = vec![start];
        let mut on_set: HashSet<&str> = [start].into();
        while let Some((node, child)) = stack.last().copied() {
            let next = adj.get(node).and_then(|v| v.get(child).copied());
            match next {
                Some(n) => {
                    stack.last_mut().unwrap().1 += 1;
                    if on_set.contains(n) {
                        let pos = on_path.iter().position(|&x| x == n).unwrap();
                        let mut cycle: Vec<String> =
                            on_path[pos..].iter().map(|s| (*s).to_string()).collect();
                        cycle.push(n.to_string());
                        return Some(cycle);
                    }
                    if !done.contains(n) && adj.contains_key(n) {
                        stack.push((n, 0));
                        on_path.push(n);
                        on_set.insert(n);
                    } else {
                        done.insert(n);
                    }
                }
                None => {
                    stack.pop();
                    on_path.pop();
                    on_set.remove(node);
                    done.insert(node);
                }
            }
        }
    }
    None
}

fn site_file(site: &str) -> String {
    site.split(':').next().unwrap_or_default().to_string()
}

fn site_line(site: &str) -> usize {
    site.split(':')
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Runs the lockgraph analysis over the workspace rooted at `root`,
/// loading the shared allowlist from `<root>/pstm-check.allow`.
pub fn run_lockgraph(root: &Path) -> Result<LockgraphReport, String> {
    let files = syntax::collect_workspace(root)?;
    let mut allow = Allowlist::load(root)?;
    Ok(analyze(&files, &mut allow))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sources: &[(&str, &str)]) -> LockgraphReport {
        let files: Vec<SourceFile> =
            sources.iter().map(|(p, s)| syntax::parse_source(p, s)).collect();
        analyze(&files, &mut Allowlist::default())
    }

    #[test]
    fn ascending_two_level_order_is_clean() {
        let r = run(&[(
            "crates/front/src/lib.rs",
            "impl Front {\n\
               fn station(&self) {\n\
                 let _fence = self.inner.flush_fences[s].lock();\n\
                 let mut gtm = self.inner.shards[s].lock();\n\
                 gtm.tick();\n\
               }\n\
             }\n",
        )]);
        assert!(r.is_clean(), "{}", r.render());
        assert!(r.edges.contains_key(&("flush_fence".into(), "gtm_shard".into())));
    }

    #[test]
    fn inverted_order_reports_up_level_edge() {
        let r = run(&[(
            "crates/front/src/lib.rs",
            "impl Front {\n\
               fn bad(&self) {\n\
                 let mut gtm = self.inner.shards[s].lock();\n\
                 let _fence = self.inner.flush_fences[s].lock();\n\
               }\n\
             }\n",
        )]);
        assert_eq!(r.violations.len(), 1, "{}", r.render());
        assert_eq!(r.violations[0].rule, LgRule::OrderGraph);
    }

    #[test]
    fn cycle_between_unleveled_classes_detected() {
        let r = run(&[(
            "crates/bench/src/a.rs",
            "fn ab(&self) { let _a = self.alpha.lock(); self.beta.lock(); }\n\
             fn ba(&self) { let _b = self.beta.lock(); self.alpha.lock(); }\n",
        )]);
        assert!(
            r.violations.iter().any(|v| v.rule == LgRule::OrderGraph && v.detail.contains("cycle")),
            "{}",
            r.render()
        );
    }

    #[test]
    fn multi_shard_outside_helper_flagged() {
        let r = run(&[(
            "crates/front/src/lib.rs",
            "impl Front {\n\
               fn bad(&self) {\n\
                 let a = self.inner.shards[0].lock();\n\
                 let b = self.inner.shards[1].lock();\n\
                 drop(a); drop(b);\n\
               }\n\
               fn lock_shards_ascending(&self) {\n\
                 let a = self.inner.shards[0].lock();\n\
                 let b = self.inner.shards[1].lock();\n\
               }\n\
             }\n",
        )]);
        let ms: Vec<_> = r.violations.iter().filter(|v| v.rule == LgRule::MultiShard).collect();
        assert_eq!(ms.len(), 1, "{}", r.render());
        assert_eq!(ms[0].func.as_deref(), Some("bad"));
    }

    #[test]
    fn hold_across_flush_traced_through_calls() {
        let r = run(&[
            (
                "crates/storage/src/wal.rs",
                "impl Wal {\n\
                   // pstm-lockgraph: flush-point\n\
                   pub fn append_batch(&mut self) {}\n\
                 }\n",
            ),
            (
                "crates/front/src/lib.rs",
                "impl Front {\n\
                   fn helper(&self, wal: Wal) { wal.append_batch(); }\n\
                   fn bad(&self, wal: Wal) {\n\
                     let g = self.inner.shards[0].lock();\n\
                     self.helper(wal);\n\
                   }\n\
                 }\n",
            ),
        ]);
        let hits: Vec<_> =
            r.violations.iter().filter(|v| v.rule == LgRule::HoldAcrossFlush).collect();
        assert_eq!(hits.len(), 1, "{}", r.render());
        assert!(hits[0].path.iter().any(|s| s.contains("flush-point")), "{:?}", hits[0]);
    }

    #[test]
    fn guard_dropped_before_flush_is_clean() {
        let r = run(&[
            (
                "crates/storage/src/wal.rs",
                "impl Wal {\n\
                   // pstm-lockgraph: flush-point\n\
                   pub fn append_batch(&mut self) {}\n\
                 }\n",
            ),
            (
                "crates/front/src/lib.rs",
                "impl Front {\n\
                   fn good(&self, wal: Wal) {\n\
                     let g = self.inner.shards[0].lock();\n\
                     drop(g);\n\
                     wal.append_batch();\n\
                   }\n\
                 }\n",
            ),
        ]);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn relaxed_outside_seam_flagged_and_seam_needs_justification() {
        let r = run(&[
            (
                "crates/front/src/lib.rs",
                "impl Front {\n fn f(&self) { self.n.fetch_add(1, Ordering::Relaxed); }\n}\n",
            ),
            ("crates/obs/src/tracer.rs", "fn tag() { N.fetch_add(1, Ordering::Relaxed); }\n"),
            (
                "crates/obs/src/prof.rs",
                "// relaxed: single-writer thread-local slot.\n\
                 fn bump() { N.fetch_add(1, Ordering::Relaxed); }\n",
            ),
        ]);
        let atomics: Vec<_> = r.violations.iter().filter(|v| v.rule == LgRule::Atomics).collect();
        assert_eq!(atomics.len(), 2, "{}", r.render());
        assert!(atomics.iter().any(|v| v.file.contains("front")));
        assert!(atomics.iter().any(|v| v.file.contains("tracer")));
    }

    #[test]
    fn blocking_reachable_from_event_loop_tag() {
        let r = run(&[(
            "crates/front/src/lib.rs",
            "impl Front {\n\
               fn helper(&self) { std::thread::sleep(d); }\n\
               // pstm-lockgraph: event-loop\n\
               fn tagged(&self) { self.helper(); }\n\
               // pstm-lockgraph: event-loop\n\
               fn pure(&self) -> usize { 7 }\n\
             }\n",
        )]);
        let hits: Vec<_> = r.violations.iter().filter(|v| v.rule == LgRule::Blocking).collect();
        assert_eq!(hits.len(), 1, "{}", r.render());
        assert_eq!(hits[0].func.as_deref(), Some("tagged"));
        assert!(hits[0].path.iter().any(|s| s.contains("sleep")), "{:?}", hits[0]);
    }

    #[test]
    fn dot_matches_waits_for_dialect() {
        let r = run(&[(
            "crates/front/src/lib.rs",
            "impl Front {\n\
               fn f(&self) { let _a = self.inner.flush_fences[s].lock();\n\
                 self.inner.shards[s].lock(); }\n\
             }\n",
        )]);
        let dot = r.dot();
        assert!(dot.starts_with("digraph lock_order {\n  rankdir=LR;\n"), "{dot}");
        assert!(dot.contains("  flush_fence -> gtm_shard;\n"), "{dot}");
        assert!(dot.ends_with("}\n"), "{dot}");
    }

    #[test]
    fn stale_lockgraph_allowlist_entry_reported() {
        let files = [syntax::parse_source("crates/front/src/lib.rs", "fn f() {}\n")];
        let mut allow =
            Allowlist::parse("hold-across-flush crates/front/src/lib.rs::gone\n").unwrap();
        let r = analyze(&files, &mut allow);
        assert_eq!(r.violations.len(), 1, "{}", r.render());
        assert_eq!(r.violations[0].rule, LgRule::Stale);
    }
}
