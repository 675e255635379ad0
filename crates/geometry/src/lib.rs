//! Exact integer space-time segment geometry for strip-based route
//! planning (§V of the ICDE'23 SRP paper).
//!
//! Within a strip, a route is one-dimensional: its trajectory is a polyline
//! of [`Segment`]s in the (time, grid-number) plane with slopes in
//! {−1, 0, 1} (Definition 6, Fig. 4). Collisions between routes become
//! segment intersections ([`intersect`]), and committed segments live in a
//! [`store::SegmentStore`] — either the naive ordered set of §V-B
//! ([`store::NaiveStore`]) or the slope-based index of §V-D
//! ([`index::SlopeIndexStore`]).
//!
//! All arithmetic is exact (`i64`); no floating point is involved anywhere,
//! including the Eq. (4) rotation, which is realized as integer line
//! intercepts (see [`Segment::index_key`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod index;
pub mod intersect;
pub mod segment;
#[cfg(feature = "shadow-store")]
pub mod shadow;
pub mod store;

pub use engine::{EngineStats, ShardKey, StoreEngine};
pub use index::SlopeIndexStore;
pub use intersect::{
    collide_exact, collide_paper, collision_time_paper, earliest_collision,
    earliest_collision_reference, CollisionKind, SegCollision,
};
pub use segment::Segment;
#[cfg(feature = "shadow-store")]
pub use shadow::ShadowStore;
pub use store::{NaiveStore, SegmentStore};
