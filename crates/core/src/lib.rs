//! `pstm-core` — the paper's contribution: the Global Transaction Manager
//! (GTM) implementing *pre-serialization of long running transactions*.
//!
//! The GTM is a hybrid optimistic/pessimistic scheduler:
//!
//! * invocations declare a semantic **operation class** (Table I); classes
//!   that forward-commute (Weihl) share the same object data member
//!   concurrently, each on a private **virtual copy** (`A_temp` with
//!   snapshot `X_read`) — [`state`];
//! * at commit the virtual copies are **reconciled** against the current
//!   permanent value (eqs. 1–2) — [`reconcile`] — and flushed by a
//!   **Secure System Transaction** (a short classical transaction against
//!   the LDBS) — [`sst`];
//! * disconnected/idle transactions become **sleeping** instead of
//!   aborted; incompatible work may bypass them, and a sleeper that wakes
//!   to find incompatible activity is aborted (Algorithm 9) — [`gtm`];
//! * committed histories can be checked for final-state serializability —
//!   [`history`];
//! * the §VII extensions are implemented behind configuration:
//!   starvation control (lock-deny past a waiting threshold) and
//!   admission control (bounding concurrent compatible holders by the
//!   resource value) — [`policy`].
//!
//! The event surface ([`gtm::Gtm`]) mirrors the 2PL baseline so the
//! simulator drives either interchangeably.

#![warn(missing_docs)]

pub mod dependence;
pub mod gtm;
pub mod history;
pub mod policy;
pub mod reconcile;
pub mod sst;
pub mod state;

pub use dependence::DependenceMap;
pub use gtm::{CommitResult, Gtm, GtmConfig, GtmStats, Outcome, Prepared, Settled};
pub use policy::{AdmissionPolicy, StarvationPolicy};
pub use sst::{flush_sst, Flush, Sst, SstBatch};
pub use state::TxnState;
