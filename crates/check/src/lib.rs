//! # pstm-check — machine-checked invariants for the pre-serialization GTM
//!
//! The GTM's correctness argument (paper §3–§4) leans on three
//! invariants that ordinary unit tests state only piecemeal. This crate
//! turns each into an analysis that runs under `cargo test` and in CI:
//!
//! 1. **Source lints** ([`lint`]) — a self-contained scanner over the
//!    workspace source enforcing review rules a compiler cannot:
//!    wall-clock reads only through `pstm_obs::wallclock` (virtual-clock
//!    determinism), no `unwrap`/`expect`/`panic!` on the
//!    commit/reconcile/SST paths, and multi-shard lock acquisition only
//!    through `pstm-front`'s ordered-ascending helper. Violations are
//!    either fixed or spelled out in an allowlist file; the report format
//!    is line-oriented and sorted, so CI diffs stay readable.
//! 2. **Serializability verifier** ([`verify`]) — consumes the JSONL
//!    traces `pstm-obs` emits, rebuilds the conflict/precedence graph of
//!    each run from grant and commit events, and either certifies
//!    conflict-serializability (producing an equivalent serial order) or
//!    prints the minimal offending cycle with transaction ids and
//!    resources.
//! 3. **Table I checker** ([`table`]) — small-scope exhaustive
//!    enumeration over the `Value` domain proving every `compatible()`
//!    entry of the paper's Table I forward-commutes (and reconciles to
//!    the serial result) and exhibiting a concrete non-commuting witness
//!    for every incompatible entry, cross-checked against
//!    `pstm_types::OpClass::compatible_with` so the shipped table cannot
//!    silently drift from the semantics it claims.
//!
//! 4. **Concurrency analyzer** ([`lockgraph`], on the dep-free Rust
//!    lexer/parser in [`syntax`]) — builds the whole-workspace static
//!    lock-order graph (fences ≺ shard mutexes ≺ WAL/recorder
//!    internals) and fails on cycles, up-level edges, or multi-shard
//!    paths outside `lock_shards_ascending`; proves the PR 7
//!    hold-across-flush rule (no shard `MutexGuard` live across
//!    `Wal::append_batch`/`Database::apply_write_set`) with guard
//!    liveness tracked across call edges; audits `Ordering::Relaxed`
//!    against the declared seams; and flags blocking calls reachable
//!    from `event-loop`-tagged functions.
//!
//! The `pstm_check` binary exposes all four (`lint` / `verify` /
//! `table` / `lockgraph` / `all`); the integration tests under `tests/`
//! run them on every `cargo test`, and `tests/phased_commit_model.rs`
//! adds a small-scope exhaustive interleaving model of the
//! `prepare` → `flush_sst` → `settle` commit protocol (the loom role,
//! in-tree).

#![warn(missing_docs)]

pub mod lint;
pub mod lockgraph;
pub mod syntax;
pub mod table;
pub mod verify;

pub use lint::{run_lint, Allowlist, LintReport, Rule, Violation};
pub use lockgraph::{
    analyze as analyze_lockgraph, class_level, run_lockgraph, LgRule, LgViolation, LockgraphReport,
};
pub use syntax::{acquisition_token_count, collect_workspace, parse_source, SourceFile};
pub use table::{check_pair, check_table, PairReport, TableReport, Witness};
pub use verify::{
    stitch_streams, verify_jsonl_files, verify_records, verify_streams, Certificate, CycleEdge,
    TraceStream, Verdict,
};
