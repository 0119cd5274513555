#![forbid(unsafe_code)]
//! # authdb-filters
//!
//! The bitmap behind the freshness protocol's periodic update summaries
//! (Section 3.1): [`bitmap`] holds growable bitmaps plus the sparse
//! compression a certified summary ships. The Bloom filters of the join
//! reproduction (Sections 2.1 and 3.5) are `authdb_paper::{bloom,
//! partitioned}`.

pub mod bitmap;

pub use bitmap::Bitmap;
