//! Weight pools: the paper's core contribution.
//!
//! This crate implements the full compression-side pipeline of
//! *Bit-serial Weight Pools* (MLSys 2022) plus the reference numerics of the
//! bit-serial lookup-table execution:
//!
//! * [`grouping`] — z-dimension grouping of conv weights into 1×G vectors
//!   along the channel axis (Figure 3);
//! * [`WeightPool`] / [`PoolConfig`] — K-means pool generation with the
//!   paper's cosine metric (§3), plus the xy-dimension (whole 3×3 kernel)
//!   pooling baseline with optional scaling coefficients (Figure 4);
//! * [`LookupTable`] — per-pool-vector dot products against all `2^G`
//!   activation bit patterns, quantized to 4/8/16 bits, in input- or
//!   weight-oriented memory order (§3.2, §4.2);
//! * [`compress`] — projecting a trained `wp-nn` model onto a pool and the
//!   straight-through fine-tuning loop (Figure 2);
//! * [`simulate`] — inference-time overrides that execute the bit-serial
//!   LUT arithmetic inside a float model, reproducing the paper's accuracy
//!   simulation methodology (Tables 5/6);
//! * [`reference`](mod@reference) — exact integer semantics of the bit-serial kernel that
//!   the instrumented MCU kernels in `wp-kernels` must match bit-for-bit;
//! * [`compression`] — storage accounting: Eq. 4 and the per-network
//!   compression ratios of Table 3;
//! * [`netspec`] — architecture shape descriptions shared by the storage
//!   accounting and the runtime simulator.
//!
//! # Example: compress a model and read its pool
//!
//! ```
//! use wp_core::{PoolConfig, compress};
//! use wp_nn::{Sequential, Conv2d};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = Sequential::new();
//! net.push(Conv2d::new(3, 16, 3, 1, 1, &mut rng));  // first conv: kept
//! net.push(Conv2d::new(16, 16, 3, 1, 1, &mut rng)); // compressed
//! let cfg = PoolConfig::new(8).group_size(8);
//! let pool = compress::build_pool(&mut net, &cfg, &mut rng)?;
//! assert_eq!(pool.len(), 8);
//! # Ok::<(), wp_core::PoolError>(())
//! ```

pub mod compress;
pub mod compression;
pub mod deploy;
pub mod fc_pool;
pub mod grouping;
mod lut;
pub mod netspec;
mod pool;
pub mod reference;
pub mod simulate;
pub mod xy_pool;

pub use lut::{LookupTable, LutOrder};
pub use pool::{PoolConfig, PoolError, WeightPool};
