//! # stapl-core — the Parallel Container Framework (PCF)
//!
//! This crate reproduces Chapters IV–VII of *The STAPL Parallel Container
//! Framework*: the concepts and modules from which pContainers are
//! assembled.
//!
//! A pContainer `pC = (C, D, F, O, S)` (Definition 1) is put together from:
//!
//! * **GIDs** ([`gid`]) — globally unique element identifiers;
//! * **domains** ([`domain`]) — the set of GIDs, usually totally ordered;
//! * **partitions** ([`partition`]) — domain → ordered sub-domains;
//! * **partition mappers** ([`mapper`]) — sub-domain → location;
//! * **base containers** ([`bcontainer`]) — per-sub-domain sequential
//!   storage behind a minimal uniform interface;
//! * **a location manager** ([`location_manager`]) — the local collection
//!   of base containers;
//! * **a data-distribution manager** ([`distribution`]) — replicated
//!   partition + mapper answering "where does GID g live?";
//! * **a directory** ([`directory`]) — the dynamic-container resolution
//!   path with method forwarding;
//! * **the `PObject` base** ([`pobject`]) — SPMD registration and the
//!   `invoke` / `invoke_ret` / `invoke_split` execution skeleton (Fig. 8).
//!   It is also where thread safety (S) lives: a representative is reached
//!   only by its own location's thread, and the compiler enforces that, so
//!   no method takes a lock.
//!
//! The container library built from these parts lives in
//! `stapl-containers`; views and algorithms in `stapl-views` and
//! `stapl-algorithms`.
//!
//! ## Memory consistency model (Chapter VII)
//!
//! The guarantees the containers give — and tests in this workspace
//! verify — are exactly the paper's default MCM:
//!
//! 1. asynchronous methods complete by the next `rmi_fence`;
//! 2. methods issued by one location on one element execute in program
//!    order (per-pair FIFO channels + owner-side sequential execution);
//! 3. a synchronous or split-phase method on element `x` observes every
//!    earlier same-location method on `x`;
//! 4. no ordering holds across different elements or different sources —
//!    the model is *not* sequentially or processor consistent (Dekker's
//!    algorithm can read two zeros, see `tests/mcm.rs`), but using only
//!    synchronous methods restores sequential consistency.

#![forbid(unsafe_code)]

pub mod bcontainer;
pub mod directory;
pub mod distribution;
pub mod domain;
pub mod gid;
pub mod interfaces;
pub mod location_manager;
pub mod mapper;
pub mod partition;
pub mod pobject;

pub mod prelude {
    pub use crate::bcontainer::{BaseContainer, MemSize};
    pub use crate::directory::{
        dir_insert, dir_lookup, dir_migrate, dir_register, dir_remove, dir_route,
        dir_route_ret, home_of, DirectoryShard, HasDirectory, OwnerCache, Resolution,
    };
    pub use crate::distribution::{IndexDistribution, KeyDistribution};
    pub use crate::domain::{Range1d, Range2d};
    pub use crate::gid::{Bcid, Gid, Key};
    pub use crate::interfaces::{
        AssociativeContainer, ElementRead, ElementWrite, LocalIteration, PContainer,
        RangedContainer,
    };
    pub use crate::location_manager::LocationManager;
    pub use crate::mapper::{CyclicMapper, GeneralMapper, PartitionMapper};
    pub use crate::partition::{
        BalancedPartition, BlockCyclicPartition, BlockedPartition, ExplicitPartition,
        HashPartition, IndexPartition, IndexSubDomain, KeyPartition, MatrixLayout,
        MatrixPartition, SplitterPartition,
    };
    pub use crate::pobject::PObject;
}
