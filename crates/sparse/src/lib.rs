//! # sparse — host-side sparse matrix infrastructure
//!
//! Everything the solver framework needs *before* data reaches the device:
//!
//! * [`formats`] — COO, CSR and the paper's **modified CSR** (§II-C): a CSR
//!   structure holding only off-diagonal entries, with the diagonal stored
//!   as a separate dense array (saves the diagonal's column indices and
//!   gives Gauss-Seidel/ILU direct diagonal access).
//! * [`io`] — MatrixMarket reading/writing, so real SuiteSparse matrices
//!   can be dropped in.
//! * [`gen`] — deterministic problem generators: the 7-point 3D and 5-point
//!   2D Poisson discretisations used by the paper's scaling study, and
//!   synthetic analogues of its four SuiteSparse benchmark matrices
//!   ([`gen::suitesparse`]).
//! * [`partition`] — row-wise domain decomposition across tiles (§II-B):
//!   nnz-balanced contiguous blocks and grid-aware box decompositions.
//! * [`halo`] — the paper's novel reordering strategy (§IV): classify cells
//!   as interior / separator / halo, group separators into regions by their
//!   neighbour-tile set, and establish the consistent intra-region ordering
//!   that allows blockwise, broadcastable halo exchanges.
//! * [`levelset`] — level-set scheduling (§V-A): the dependency levels of
//!   triangular solves, used to parallelise Gauss-Seidel and ILU across the
//!   six worker threads of a tile.
//! * [`sell`] — the Sliced ELLPACK format the paper defers to future work
//!   (§II-C), implemented so its IPU hypothesis can be tested.

pub mod fingerprint;
pub mod formats;
pub mod gen;
pub mod halo;
pub mod io;
pub mod levelset;
pub mod partition;
pub mod sell;

pub use formats::{CooMatrix, CsrMatrix, ModifiedCsr};
pub use halo::{CellKind, HaloDecomposition, LocalMatrix, Region};
pub use levelset::LevelSets;
pub use partition::Partition;
pub use sell::SellMatrix;
