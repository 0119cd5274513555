#![forbid(unsafe_code)]
//! Facade crate re-exporting the full `authdb` workspace API.
pub use authdb_core as core;
pub use authdb_crypto as crypto;
pub use authdb_filters as filters;
pub use authdb_index as index;
pub use authdb_paper as paper;
pub use authdb_sim as sim;
pub use authdb_storage as storage;
