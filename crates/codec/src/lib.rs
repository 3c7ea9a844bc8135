#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]
//! H.264/AVC-style inter-loop encoding library for FEVES.
//!
//! Implements every module of the paper's Fig 1 inter-loop as independent,
//! row-sliceable kernels:
//!
//! | module | paper role | entry point |
//! |---|---|---|
//! | [`me`] | Motion Estimation (FSBM, 7 partitions, multi-RF) | [`me::motion_estimate_rows`] |
//! | [`interp`] | Interpolation → SF (6-tap + bilinear) | [`interp::SubpelFrame`] |
//! | [`sme`] | Sub-pixel Motion Estimation | [`sme::sme_rows`] |
//! | [`mc`] | Motion Compensation + mode decision (R\*); the one prediction writer | [`mc::mc_rows`], [`mc::write_prediction`] |
//! | [`transform`] / [`quant`] / [`recon`] | TQ and TQ⁻¹ (R\*); the encoder's R\* row pass, MC → TQ → TQ⁻¹ of one MB row | [`recon::tq_rows`], [`recon::itq_recon_rows`], [`recon::code_inter_row`] |
//! | [`dbl`] | Deblocking Filtering (R\*) | [`dbl::deblock_frame`] |
//! | [`entropy`] / [`cabac`] | Entropy coding: the Exp-Golomb and the arithmetic symbol coders of the one (YUV) frame kind | [`entropy::encode_frame_yuv`], [`cabac::encode_frame_cabac`] |
//! | `syntax` (private) | The frame syntax both coders binarise: the one writer walk, the one reader walk and its range checks | [`cabac::EntropyBackend::encode_frame_yuv`] |
//! | [`decoder`] | P-frame decoding: the range checks, the syntax reader, then the encoder's MC / TQ⁻¹ kernels row by row and its DBL / chroma kernels | [`decoder::decode_yuv`] |
//! | [`intra`] | I-slice coding | [`intra::encode_intra_frame`] |
//! | [`kernels`] | SSE/AVX-style hot-kernel fast paths (`std::arch` SAD and averaging, padded-row 6-tap, SSE2 TQ and line filter) and their scalar references, of which the product runs only the dequantizer | [`kernels::fast::interp_band`], [`kernels::tq_blocks`] |
//! | [`par`] | Host execution: MB rows over the host's cores | [`par::for_each_row`] |
//!
//! The ME/INT/SME kernels are *partition-invariant*: their result for a
//! macroblock row depends only on the frame data, so distributing MB rows
//! across heterogeneous devices (the whole point of FEVES) cannot change the
//! encoded output. [`inter_loop::encode_inter_frame_yuv`] is the single-device
//! golden reference the framework is tested against, and [`workload`] is the
//! analytic cost model the platform simulator charges time with.

pub mod cabac;
pub mod chroma;
pub mod dbl;
pub mod decoder;
pub mod entropy;
pub mod inter_loop;
pub mod interp;
pub mod intra;
pub mod kernels;
pub mod mc;
pub mod me;
pub mod par;
pub mod quant;
pub mod rate;
pub mod recon;
pub mod sme;
mod syntax;
pub mod transform;
pub mod types;
pub mod workload;

pub use inter_loop::{encode_inter_frame_yuv, InterFrameOutputYuv, ReferenceStore};
pub use interp::SubpelFrame;
pub use me::{MbMotion, MeField};
pub use sme::{MbSubMotion, SmeField};
pub use types::{EncodeParams, MbField, Module, Mv, PartitionMode, QpelMv, SearchArea};
