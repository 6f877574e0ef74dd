//! One function per table and figure of the paper's evaluation section.
//!
//! Every function renders a markdown report with the paper's reference
//! numbers alongside the measured ones. Accuracy experiments run micro
//! models on synthetic data, so absolute accuracies differ by design; the
//! reproduction target is the *trend* (who wins, by roughly what factor,
//! where crossovers fall).

use crate::accuracy::{
    eval_subset, lut_sim_eval, pool_finetune_eval, qat_retrain, train_base, xy_pool_eval,
    MicroKind, TrainedModel,
};
use crate::runtime::{latency_cell, run, synthetic_lut, LayerBench};
use crate::table::{f, pct, Table};
use crate::Effort;
use wp_cluster::DistanceMetric;
use wp_core::compression::{storage_report, CompressionConfig};
use wp_core::PoolConfig;
use wp_kernels::network::DeployMode;
use wp_kernels::{BitSerialOptions, PrecomputeMode};
use wp_mcu::McuSpec;

fn default_cfg(pool_size: usize) -> PoolConfig {
    PoolConfig::new(pool_size).group_size(8).metric(DistanceMetric::Cosine)
}

/// Table 1: accuracy of the z-dimension weight pool at group sizes
/// {4, 8, 16} on ResNet-14 (pool 64).
pub fn table1_group_size(effort: Effort) -> String {
    let mut tm = train_base(MicroKind::ResNet14, effort, 14);
    let mut t = Table::new(
        "Table 1 - accuracy vs group (vector) size, ResNet-14, pool 64",
        &["Group size", "Accuracy (%)", "Paper (%)"],
    );
    let paper = [(4usize, "91.22"), (8, "91.13"), (16, "87.96")];
    for (g, paper_acc) in paper {
        tm.restore();
        let cfg = default_cfg(64).group_size(g);
        let (_pool, acc) = pool_finetune_eval(&mut tm, &cfg, effort, 14);
        t.row(&[g.to_string(), pct(acc), paper_acc.to_string()]);
    }
    t.note(format!(
        "Original (uncompressed) accuracy: {}% here vs 92.26% in the paper. \
         Expected trend: group 4 and 8 close to original, group 16 clearly worse.",
        pct(tm.float_acc)
    ));
    t.to_markdown()
}

/// Figure 4: z-dimension pools vs xy-dimension (3×3-kernel) pools with and
/// without scaling coefficients, at pool sizes {16, 32, 64}.
pub fn fig4_pool_dimension(effort: Effort) -> String {
    let mut tm = train_base(MicroKind::ResNet14, effort, 4);
    let mut t = Table::new(
        "Figure 4 - pool dimension study, ResNet-14 (fine-tuned accuracy, %)",
        &["Pool size", "xy", "xy + coeff", "z (g=8)"],
    );
    for pool_size in [16usize, 32, 64] {
        tm.restore();
        let xy = xy_pool_eval(&mut tm, pool_size, false, effort, 40 + pool_size as u64);
        tm.restore();
        let xy_coeff = xy_pool_eval(&mut tm, pool_size, true, effort, 41 + pool_size as u64);
        tm.restore();
        let cfg = default_cfg(pool_size);
        let (_pool, z) = pool_finetune_eval(&mut tm, &cfg, effort, 42 + pool_size as u64);
        t.row(&[pool_size.to_string(), pct(xy), pct(xy_coeff), pct(z)]);
    }
    t.note(format!(
        "Original accuracy {}%. Paper (Fig. 4): z-pools beat xy-with-coefficients \
         slightly and xy-without-coefficients clearly; pool size 64 suffices. \
         Every column is fine-tuned against its pool (the paper's Figure 2 \
         pipeline) for a like-for-like comparison.",
        pct(tm.float_acc)
    ));
    t.to_markdown()
}

/// Table 3: parameters, compression ratio and LUT overhead of the five
/// full-size networks (pool 64, 8-bit indices, 8-bit LUT).
pub fn table3_compression() -> String {
    let cfg = CompressionConfig::paper_default(64);
    let mut t = Table::new(
        "Table 3 - compression ratio (pool 64, 8-bit LUT, byte indices)",
        &[
            "Network",
            "Conv params",
            "Paper params",
            "CR",
            "Paper CR",
            "LUT overhead (%)",
            "Paper (%)",
        ],
    );
    let paper: [(&str, u64, &str, &str); 5] = [
        ("TinyConv", 81_600, "2.32", "29.8"),
        ("ResNet-s", 170_928, "4.43", "29.7"),
        ("ResNet-10", 665_280, "6.51", "13.8"),
        ("ResNet-14", 2_729_664, "7.55", "4.3"),
        ("MobileNet-v2", 2_249_792, "6.22", "4.5"),
    ];
    for (spec, (name, paper_params, paper_cr, paper_lut)) in
        wp_models::specs::all_networks().iter().zip(paper)
    {
        assert_eq!(spec.name, name);
        let report = storage_report(spec, &cfg);
        t.row(&[
            spec.name.clone(),
            report.conv_weights.to_string(),
            paper_params.to_string(),
            f(report.compression_ratio, 2),
            paper_cr.to_string(),
            f(report.lut_overhead * 100.0, 1),
            paper_lut.to_string(),
        ]);
    }
    t.note(
        "ResNet parameter counts match the paper exactly; TinyConv/MobileNet-v2 are \
         reconstructions (DESIGN.md). CR counts conv+dense weights at 8 bits vs \
         indices + LUT + uncompressed layers.",
    );
    t.to_markdown()
}

/// Table 4: accuracy vs pool size {32, 64, 128} on all five networks.
pub fn table4_pool_size(effort: Effort) -> String {
    let mut t = Table::new(
        "Table 4 - accuracy (%) vs weight pool size (float weights, no quantization)",
        &["Network", "Dataset", "Original", "32", "64", "128", "Paper orig/32/64/128"],
    );
    let paper: [(&str, &str); 5] = [
        ("ResNet-s", "85.3 / 82.0 / 83.0 / 84.0"),
        ("ResNet-10", "91.0 / 89.3 / 89.8 / 90.1"),
        ("ResNet-14", "92.3 / 90.7 / 91.1 / 91.0"),
        ("TinyConv", "82.2 / 81.7 / 82.2 / 82.3"),
        ("MobileNet-v2", "86.5 / 86.7 / 86.8 / 86.9"),
    ];
    for (kind, (pname, paper_row)) in MicroKind::all().iter().zip(paper) {
        assert_eq!(kind.name(), pname);
        let mut tm = train_base(*kind, effort, 100 + *kind as u64);
        let mut cells =
            vec![kind.name().to_string(), kind.dataset_name().to_string(), pct(tm.float_acc)];
        for pool_size in [32usize, 64, 128] {
            tm.restore();
            let cfg = default_cfg(pool_size);
            let (_pool, acc) = pool_finetune_eval(&mut tm, &cfg, effort, 100 + pool_size as u64);
            cells.push(pct(acc));
        }
        cells.push(paper_row.to_string());
        t.row(&cells);
    }
    t.note(
        "Expected trend: small drop vs original, shrinking as pool size grows; \
         64 suffices for most networks (paper default).",
    );
    t.to_markdown()
}

/// Table 5: accuracy vs lookup-table bitwidth {no-LUT, 16, 8, 4} at 8-bit
/// activations.
pub fn table5_lut_bitwidth(effort: Effort) -> String {
    let mut t = Table::new(
        "Table 5 - accuracy (%) vs LUT bitwidth (8-bit activations, pool 64)",
        &["Network", "No-LUT", "16", "8", "4", "Paper no-LUT/16/8/4"],
    );
    let paper: [(&str, &str); 5] = [
        ("ResNet-s", "83.0 / 83.0 / 82.9 / 82.3"),
        ("ResNet-10", "89.6 / 89.9 / 89.9 / 89.4"),
        ("ResNet-14", "91.1 / 91.1 / 91.1 / 90.4"),
        ("TinyConv", "82.2 / 82.2 / 82.1 / 81.6"),
        ("MobileNet-v2", "86.8 / 86.6 / 86.6 / 85.5"),
    ];
    for (kind, (pname, paper_row)) in MicroKind::all().iter().zip(paper) {
        assert_eq!(kind.name(), pname);
        let mut tm = train_base(*kind, effort, 200 + *kind as u64);
        let cfg = default_cfg(64);
        let (pool, _no_quant_acc) = pool_finetune_eval(&mut tm, &cfg, effort, 200);
        let no_lut = lut_sim_eval(&mut tm, &pool, &cfg, None, 8, effort);
        let mut cells = vec![kind.name().to_string(), pct(no_lut)];
        for bits in [16u8, 8, 4] {
            let acc = lut_sim_eval(&mut tm, &pool, &cfg, Some(bits), 8, effort);
            cells.push(pct(acc));
        }
        cells.push(paper_row.to_string());
        t.row(&cells);
    }
    t.note(
        "Expected trend: 16- and 8-bit LUTs lossless vs no-LUT; 4-bit loses \
         fractions of a point (paper keeps 8-bit as default).",
    );
    t.to_markdown()
}

/// Table 6: accuracy vs activation bitwidth 8→3 (8-bit LUT, pool 64), with
/// quantization-aware retraining where the drop exceeds 1%.
pub fn table6_activation_bitwidth(effort: Effort) -> String {
    let mut t = Table::new(
        "Table 6 - accuracy (%) vs activation bitwidth (8-bit LUT, pool 64); \
         values in parentheses are after retraining",
        &["Network", "8", "7", "6", "5", "4", "3", "Min bits (<1% drop)", "Paper min"],
    );
    let paper_min: [(&str, u8); 5] =
        [("ResNet-s", 4), ("ResNet-10", 4), ("ResNet-14", 3), ("TinyConv", 4), ("MobileNet-v2", 5)];
    for (kind, (pname, paper_m)) in MicroKind::all().iter().zip(paper_min) {
        assert_eq!(kind.name(), pname);
        let mut tm = train_base(*kind, effort, 300 + *kind as u64);
        let cfg = default_cfg(64);
        let (pool, pool_acc) = pool_finetune_eval(&mut tm, &cfg, effort, 300);
        let projected = tm.built.net.state_dict();
        let mut cells = vec![kind.name().to_string()];
        let mut min_bits: Option<u8> = None;
        for bits in [8u8, 7, 6, 5, 4, 3] {
            tm.built.net.load_state_dict(&projected);
            let acc = lut_sim_eval(&mut tm, &pool, &cfg, Some(8), bits, effort);
            let drop = pool_acc - acc;
            let cell = if drop > 0.01 && bits <= 5 {
                // Retrain with activation fake-quant, then re-evaluate.
                tm.built.net.load_state_dict(&projected);
                qat_retrain(&mut tm, &pool, &cfg, bits, effort);
                let retrained = lut_sim_eval(&mut tm, &pool, &cfg, Some(8), bits, effort);
                let best = acc.max(retrained);
                if pool_acc - best <= 0.01 {
                    min_bits = Some(bits);
                }
                format!("{} ({})", pct(acc), pct(retrained))
            } else {
                if drop <= 0.01 {
                    min_bits = Some(bits);
                }
                pct(acc)
            };
            cells.push(cell);
        }
        tm.built.net.load_state_dict(&projected);
        cells.push(min_bits.map(|b| b.to_string()).unwrap_or_else(|| ">8".into()));
        cells.push(paper_m.to_string());
        t.row(&cells);
    }
    t.note(
        "Expected trend: 8-6 bits lossless, degradation from 5 bits down, \
         retraining recovering several points; MobileNet-v2 the most \
         quantization-sensitive (paper min 5 bits).",
    );
    t.to_markdown()
}

/// The paper's minimum activation bitwidths (Table 6, last column) used by
/// the `-m` columns of Table 7.
fn paper_min_bits(name: &str) -> u8 {
    match name {
        "ResNet-14" => 3,
        "MobileNet-v2" => 5,
        _ => 4,
    }
}

/// Table 7: full-network inference latency (seconds) on both
/// microcontrollers: CMSIS vs weight pools {64, 32} at {8-bit, min} act.
pub fn table7_full_network(effort: Effort) -> String {
    let mut t = Table::new(
        "Table 7 - full-network latency in seconds ('/' = does not fit in flash)",
        &[
            "Device",
            "Network",
            "CMSIS",
            "64-8",
            "32-8",
            "64-m",
            "32-m",
            "Paper (CM/64-8/32-8/64-m/32-m)",
        ],
    );
    let paper: &[(&str, &str, &str)] = &[
        ("MC-large", "TinyConv", "1.06 / 0.83 / 0.75 / 0.60 / 0.57"),
        ("MC-large", "ResNet-s", "0.60 / 0.49 / 0.43 / 0.31 / 0.28"),
        ("MC-large", "ResNet-10", "5.28 / 3.00 / 2.22 / 1.87 / 1.61"),
        ("MC-large", "ResNet-14", "/ / 3.46 / 2.59 / 1.92 / 1.73"),
        ("MC-large", "MobileNet-v2", "/ / 3.60 / 3.12 / 3.07 / 2.78"),
        ("MC-small", "TinyConv", "1.95 / 1.49 / 1.33 / 0.99 / 0.89"),
        ("MC-small", "ResNet-s", "1.24 / 1.07 / 0.89 / 0.63 / 0.55"),
    ];
    let nets = wp_models::specs::all_networks();
    let (_p64, lut64) = synthetic_lut(64, 8, 7);
    let (_p32, lut32) = synthetic_lut(32, 8, 7);
    for &(dev_name, net_name, paper_row) in paper {
        if effort.fast && !matches!(net_name, "TinyConv" | "ResNet-s") {
            continue;
        }
        let device = if dev_name == "MC-large" { McuSpec::mc_large() } else { McuSpec::mc_small() };
        let net = nets.iter().find(|n| n.name == net_name).unwrap();
        let m = paper_min_bits(net_name);

        let cmsis = run(&device, net, &DeployMode::Cmsis);
        let bs = |lut, bits| {
            let mode = DeployMode::BitSerial { lut, opts: BitSerialOptions::paper_default(bits) };
            run(&device, net, &mode)
        };
        let r64_8 = bs(&lut64, 8);
        let r32_8 = bs(&lut32, 8);
        let r64_m = bs(&lut64, m);
        let r32_m = bs(&lut32, m);
        t.row(&[
            dev_name.to_string(),
            net_name.to_string(),
            latency_cell(&cmsis),
            latency_cell(&r64_8),
            latency_cell(&r32_8),
            latency_cell(&r64_m),
            latency_cell(&r32_m),
            paper_row.to_string(),
        ]);
    }
    t.note(
        "Minimum bitwidths (-m) use the paper's Table 6 values (4/4/3/4/5). \
         Expected shape: weight pools beat CMSIS everywhere; pool 32 beats 64; \
         lower bitwidth beats 8; ResNet-14 and MobileNet-v2 only fit with pools.",
    );
    t.to_markdown()
}

/// Figure 7: per-layer speedup of LUT caching and caching+precomputation
/// over the unoptimized bit-serial implementation, vs filter count.
pub fn fig7_layer_optimizations(effort: Effort) -> String {
    let mut t = Table::new(
        "Figure 7 - layer speedup vs baseline bit-serial implementation (3x3 conv, 16x16 input, pool 64)",
        &["Filters", "LUT caching", "Caching + precompute", "Paper caching", "Paper cache+pre"],
    );
    let paper: [(usize, &str, &str); 4] = [
        (32, "~1.05", "~0.95"),
        (64, "~1.15", "~1.2"),
        (128, "~1.3", "~1.9"),
        (192, "1.4", "2.45"),
    ];
    let filters: Vec<usize> = if effort.fast { vec![32, 64] } else { vec![32, 64, 128, 192] };
    for (fcount, paper_cache, paper_pre) in paper {
        if !filters.contains(&fcount) {
            continue;
        }
        let bench = if effort.fast {
            LayerBench { channels: fcount, hw: 8, pool_size: 64 }
        } else {
            LayerBench::paper(fcount)
        };
        let base = bench.run_bitserial(
            &BitSerialOptions {
                lut_cache: false,
                precompute: PrecomputeMode::ForceOff,
                ..BitSerialOptions::paper_default(8)
            },
            fcount as u64,
        );
        let cache = bench.run_bitserial(
            &BitSerialOptions {
                precompute: PrecomputeMode::ForceOff,
                ..BitSerialOptions::paper_default(8)
            },
            fcount as u64,
        );
        let cache_pre = bench.run_bitserial(
            &BitSerialOptions {
                precompute: PrecomputeMode::ForceOn,
                ..BitSerialOptions::paper_default(8)
            },
            fcount as u64,
        );
        t.row(&[
            fcount.to_string(),
            f(base as f64 / cache as f64, 2),
            f(base as f64 / cache_pre as f64, 2),
            paper_cache.to_string(),
            paper_pre.to_string(),
        ]);
    }

    // §4.1's claim: naive per-dot-product unpacking is several times slower.
    let bench = if effort.fast {
        LayerBench { channels: 64, hw: 8, pool_size: 64 }
    } else {
        LayerBench::paper(64)
    };
    let tuned = bench.run_bitserial(
        &BitSerialOptions {
            precompute: PrecomputeMode::ForceOff,
            lut_cache: false,
            ..BitSerialOptions::paper_default(8)
        },
        99,
    );
    let naive = bench.run_bitserial(
        &BitSerialOptions {
            input_reuse: false,
            lut_cache: false,
            precompute: PrecomputeMode::ForceOff,
            ..BitSerialOptions::paper_default(8)
        },
        99,
    );
    t.note(format!(
        "Expected shape: caching benefit grows with filter count; precompute \
         helps only above the pool size (64). Naive per-dot-product bit \
         unpacking (S4.1) measured {:.1}x slower than the input-reuse dataflow \
         (paper: ~9x slower than baseline overall).",
        naive as f64 / tuned as f64
    ));
    t.to_markdown()
}

/// Figure 8: speedup vs activation bitwidth, without and with
/// precomputation (128 channels/filters, pool 64).
pub fn fig8_activation_speedup(effort: Effort) -> String {
    let mut t = Table::new(
        "Figure 8 - speedup over 8-bit bit-serial execution vs activation bitwidth (128ch, pool 64)",
        &["Act bits", "No precompute", "With precompute", "Paper no-pre (approx)"],
    );
    let bench = if effort.fast {
        LayerBench { channels: 32, hw: 8, pool_size: 16 }
    } else {
        LayerBench::paper(128)
    };
    let run_at = |bits: u8, pre: PrecomputeMode| {
        bench.run_bitserial(
            &BitSerialOptions { precompute: pre, ..BitSerialOptions::paper_default(bits) },
            1000 + bits as u64,
        )
    };
    let base_no = run_at(8, PrecomputeMode::ForceOff);
    let base_pre = run_at(8, PrecomputeMode::ForceOn);
    let paper = ["1.0", "~1.1", "~1.3", "~1.5", "~1.8", "~2.2", "~2.9", "~3.9"];
    for (i, bits) in (1..=8u8).rev().enumerate() {
        let no = run_at(bits, PrecomputeMode::ForceOff);
        let pre = run_at(bits, PrecomputeMode::ForceOn);
        t.row(&[
            bits.to_string(),
            f(base_no as f64 / no as f64, 2),
            f(base_pre as f64 / pre as f64, 2),
            paper[i].to_string(),
        ]);
    }
    t.note(
        "Expected shape: near-linear speedup as bits shrink (slope limited by \
         the fixed unpack overhead, ~4x at 1 bit); precompute compresses the \
         range because the result-lookup phase is bitwidth-independent.",
    );
    t.to_markdown()
}

/// §5.5: weight pools vs binarized networks — accuracy collapse of the
/// binarized TinyConv and the BNN kernel's speed.
pub fn sec55_binarized(effort: Effort) -> String {
    let mut t = Table::new(
        "S5.5 - weight pools vs binarized networks (TinyConv)",
        &["Variant", "Accuracy (%)", "Paper (%)"],
    );
    let mut tm = train_base(MicroKind::TinyConv, effort, 55);
    t.row(&["float".into(), pct(tm.float_acc), "-".into()]);

    // Weight pool (64) accuracy.
    let cfg = default_cfg(64);
    let (_pool, wp_acc) = pool_finetune_eval(&mut tm, &cfg, effort, 55);
    t.row(&["weight pool 64".into(), pct(wp_acc), "81.2".into()]);

    // Binarized: straight-through fine-tuning with sign(w)*mean|w| weights
    // and 1-bit activations.
    tm.restore();
    binarize_finetune(&mut tm, effort);
    let bnn_acc = eval_subset(&mut tm.built.net, &tm.data.test, effort.eval_images());
    t.row(&["binarized (1-bit w, 1-bit act)".into(), pct(bnn_acc), "66.9".into()]);

    // Kernel speed: binary conv vs CMSIS int8 conv on a TinyConv-scale layer.
    let shape = wp_core::reference::PooledConvShape {
        in_ch: 32,
        out_ch: 32,
        kernel: 5,
        stride: 1,
        pad: 2,
        in_h: 14,
        in_w: 14,
    };
    let mut m_int8 = wp_mcu::Mcu::new(McuSpec::mc_large());
    let codes = vec![1i32; 32 * 14 * 14];
    let weights = vec![1i8; 32 * 32 * 25];
    let oq = wp_kernels::OutputQuant::identity(8);
    wp_kernels::cmsis::conv_cmsis(&mut m_int8, &codes, &shape, &weights, &[0; 32], &oq);
    let mut m_bnn = wp_mcu::Mcu::new(McuSpec::mc_large());
    let packed_in = vec![0u32; 14 * 14];
    let packed_w = vec![0u32; 32 * 25];
    wp_kernels::bnn::conv_bnn(&mut m_bnn, &packed_in, &shape, &packed_w, &oq);
    t.note(format!(
        "BNN kernel speedup over CMSIS int8 on a 5x5x32x32 layer: {:.1}x \
         (binarized-network MCU papers report 2-4x). The accuracy collapse \
         with matching compression is the paper's argument for weight pools.",
        m_int8.cycles() as f64 / m_bnn.cycles() as f64
    ));
    t.to_markdown()
}

/// Straight-through binarization fine-tuning: forward with
/// `sign(w)·mean|w|` weights and 1-bit activations, gradients to latent
/// weights.
fn binarize_finetune(tm: &mut TrainedModel, effort: Effort) {
    use wp_nn::ActQuantMode;
    // Calibrate 1-bit activation quantizers.
    for h in &tm.built.act_handles {
        h.clear_samples();
        h.set_mode(ActQuantMode::Observe);
    }
    for batch in tm.data.train.iter().take(2) {
        tm.built.net.forward(&batch.images, false);
    }
    for h in &tm.built.act_handles {
        h.finalize(1, 20);
        h.set_mode(ActQuantMode::Quantize);
    }

    let mut opt = wp_nn::Sgd::new(0.005).momentum(0.9);
    let epochs = effort.finetune_epochs();
    for _ in 0..epochs {
        for batch in tm.data.train.clone() {
            let latent = tm.built.net.state_dict();
            binarize_convs(&mut tm.built.net);
            let logits = tm.built.net.forward(&batch.images, true);
            let out = wp_nn::SoftmaxCrossEntropy::compute(&logits, &batch.labels);
            tm.built.net.backward(&out.grad);
            tm.built.net.load_state_dict(&latent);
            opt.step(&mut tm.built.net);
        }
    }
    binarize_convs(&mut tm.built.net);
}

/// Replaces every non-stem conv's weights with `sign(w)·mean|w|` per layer.
fn binarize_convs(net: &mut wp_nn::Sequential) {
    wp_core::compress::for_each_conv_indexed(net, |pos, conv| {
        if pos == 0 {
            return;
        }
        let w = conv.weight_mut();
        let mean_abs = w.data().iter().map(|v| v.abs()).sum::<f32>() / w.len() as f32;
        for v in w.data_mut() {
            *v = if *v >= 0.0 { mean_abs } else { -mean_abs };
        }
    });
}

/// The §3.2 storage example and Eq. 4 curves: a quick numeric check table.
pub fn compression_formula_check() -> String {
    let mut t = Table::new(
        "Eq. 3/4 - lookup table storage and theoretical compression ratio",
        &["Pool size", "LUT storage (kB)", "Eq.4 CR (W=1M, 8-bit)", "Eq.4 CR (W=100k)"],
    );
    for pool_size in [32usize, 64, 128] {
        let cfg = CompressionConfig::paper_default(pool_size);
        let lut_kb = cfg.lut_storage_bits() as f64 / 8.0 / 1024.0;
        let cr1m = wp_core::compression::theoretical_cr(1_000_000, 8, 8, pool_size, 8);
        let cr100k = wp_core::compression::theoretical_cr(100_000, 8, 8, pool_size, 8);
        t.row(&[pool_size.to_string(), f(lut_kb, 1), f(cr1m, 2), f(cr100k, 2)]);
    }
    t.note("Paper S3.2: 64-vector pool at 8-bit entries = 16 kB of LUT.");
    t.to_markdown()
}

/// Footnote 1 (§5.2): compressing the fully-connected layers too —
/// compression ratio gained vs accuracy lost (ResNet-s and TinyConv, the
/// networks where FC weight share matters).
pub fn footnote1_fc_compression(effort: Effort) -> String {
    let mut t = Table::new(
        "Footnote 1 - pooling the FC layer (pool 64): CR and accuracy deltas",
        &["Network", "CR (conv only)", "CR (conv+FC)", "Acc conv-only (%)", "Acc +FC (%)", "Paper"],
    );
    let paper: [(MicroKind, &str); 2] = [
        (MicroKind::ResNetS, "CR 4.43->4.5 at -0.7% acc"),
        (MicroKind::TinyConv, "CR 2.32->3.1 at -2.8% acc"),
    ];
    for (kind, paper_note) in paper {
        // Storage side: full-size spec with/without FC compression.
        let spec_name = kind.name();
        let mut spec =
            wp_models::specs::all_networks().into_iter().find(|n| n.name == spec_name).unwrap();
        let ccfg = CompressionConfig::paper_default(64);
        let cr_conv = storage_report(&spec, &ccfg).compression_ratio;
        for layer in &mut spec.layers {
            if let wp_core::netspec::LayerSpec::Dense { in_features, compressed, .. } = layer {
                if *in_features % 8 == 0 {
                    *compressed = true;
                }
            }
        }
        let cr_fc = storage_report(&spec, &ccfg).compression_ratio;

        // Accuracy side on the micro model: pool conv-only vs conv+FC.
        let mut tm = train_base(kind, effort, 501);
        let cfg = default_cfg(64);
        let (pool, acc_conv) = pool_finetune_eval(&mut tm, &cfg, effort, 501);
        let replaced = wp_core::fc_pool::project_dense(&mut tm.built.net, &pool, &cfg);
        assert!(replaced > 0, "{spec_name}: FC projection replaced nothing");
        let acc_fc = tm.eval(effort.eval_images());

        t.row(&[
            spec_name.to_string(),
            f(cr_conv, 2),
            f(cr_fc, 2),
            pct(acc_conv),
            pct(acc_fc),
            paper_note.to_string(),
        ]);
    }
    t.note(
        "Expected trend: FC pooling buys extra compression on small networks \
         at a visible accuracy cost - why the paper leaves FC uncompressed.",
    );
    t.to_markdown()
}

/// Ablation (DESIGN.md): cosine vs Euclidean clustering metric for pool
/// generation, on ResNet-14 at pool 64.
pub fn ablation_metric(effort: Effort) -> String {
    let mut tm = train_base(MicroKind::ResNet14, effort, 601);
    let mut t = Table::new(
        "Ablation - pool clustering metric (ResNet-14, pool 64)",
        &["Metric", "Projection acc (%)", "Fine-tuned acc (%)"],
    );
    for (name, metric) in
        [("cosine (paper)", DistanceMetric::Cosine), ("euclidean", DistanceMetric::Euclidean)]
    {
        tm.restore();
        let cfg = default_cfg(64).metric(metric);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(601);
        let pool = wp_core::compress::build_pool(&mut tm.built.net, &cfg, &mut rng).unwrap();
        wp_core::compress::project(&mut tm.built.net, &pool, &cfg);
        let proj_acc = tm.eval(effort.eval_images());
        let mut opt = wp_nn::Sgd::new(0.01).momentum(0.9);
        wp_core::compress::finetune(
            &mut tm.built.net,
            &pool,
            &cfg,
            &mut opt,
            &tm.data.train,
            effort.finetune_epochs(),
        );
        let ft_acc = tm.eval(effort.eval_images());
        t.row(&[name.to_string(), pct(proj_acc), pct(ft_acc)]);
    }
    t.note(format!(
        "Original accuracy {}%. The paper picks cosine to avoid scaling \
         dependence; fine-tuning narrows whatever gap projection opens.",
        pct(tm.float_acc)
    ));
    t.to_markdown()
}

/// Ablation (§4.2 + appendix): input-oriented vs weight-oriented LUT
/// memory order under the caching optimization.
pub fn ablation_lut_order(effort: Effort) -> String {
    use wp_core::{LutOrder, WeightPool};
    let mut t = Table::new(
        "Ablation - LUT memory order with caching (3x3 conv, pool 64)",
        &["Filters", "Input-oriented (cycles)", "Weight-oriented (cycles)", "Penalty"],
    );
    let filters: Vec<usize> = if effort.fast { vec![32] } else { vec![32, 128] };
    for fcount in filters {
        let bench = if effort.fast {
            LayerBench { channels: fcount, hw: 8, pool_size: 64 }
        } else {
            LayerBench::paper(fcount)
        };
        let run_order = |order: LutOrder| {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
            use rand::Rng;
            let vectors: Vec<Vec<f32>> =
                (0..64).map(|_| (0..8).map(|_| rng.gen_range(-0.5f32..0.5)).collect()).collect();
            let pool = WeightPool::from_vectors(vectors);
            let lut = wp_core::LookupTable::build(&pool, 8, order);
            let shape = bench.shape();
            let codes = vec![1i32; shape.in_ch * shape.in_h * shape.in_w];
            let indices = vec![0u8; shape.index_count(8)];
            let bias = vec![0i32; shape.out_ch];
            let mut mcu = wp_mcu::Mcu::new(McuSpec::mc_large());
            wp_kernels::conv_bitserial(
                &mut mcu,
                &codes,
                &shape,
                &indices,
                &lut,
                &bias,
                &wp_kernels::OutputQuant::identity(8),
                &BitSerialOptions {
                    precompute: PrecomputeMode::ForceOff,
                    ..BitSerialOptions::paper_default(8)
                },
            );
            mcu.cycles()
        };
        let input_or = run_order(LutOrder::InputOriented);
        let weight_or = run_order(LutOrder::WeightOriented);
        t.row(&[
            fcount.to_string(),
            input_or.to_string(),
            weight_or.to_string(),
            format!("{:.2}x", weight_or as f64 / input_or as f64),
        ]);
    }
    t.note(
        "Input-oriented order makes each cached block a contiguous burst \
         copy; weight-oriented order degrades to per-entry gathers - the \
         reason the paper picks input-oriented (S4.2).",
    );
    t.to_markdown()
}

/// Ablation: how much of the bit-serial advantage survives a stronger
/// baseline core? Re-runs the ResNet-s Table-7 comparison on a
/// hypothetical Cortex-M4 (single-cycle DSP MAC) next to the paper's M3.
pub fn ablation_m4_baseline(_effort: Effort) -> String {
    let mut t = Table::new(
        "Ablation - baseline core strength (ResNet-s, pool 64, 8-bit and 4-bit act)",
        &["Core", "CMSIS (s)", "64-8 (s)", "Speedup 8b", "64-4 (s)", "Speedup 4b"],
    );
    let net = wp_models::specs::resnet_s();
    let (_p, lut) = synthetic_lut(64, 8, 13);
    for device in [McuSpec::mc_large(), McuSpec::mc_large_m4()] {
        let cmsis = run(&device, &net, &DeployMode::Cmsis);
        let b8 = run(
            &device,
            &net,
            &DeployMode::BitSerial { lut: &lut, opts: BitSerialOptions::paper_default(8) },
        );
        let b4 = run(
            &device,
            &net,
            &DeployMode::BitSerial { lut: &lut, opts: BitSerialOptions::paper_default(4) },
        );
        t.row(&[
            device.name.clone(),
            f(cmsis.seconds, 3),
            f(b8.seconds, 3),
            format!("{:.2}x", cmsis.seconds / b8.seconds),
            f(b4.seconds, 3),
            format!("{:.2}x", cmsis.seconds / b4.seconds),
        ]);
    }
    t.note(
        "The bit-serial inner loop does no multiplies, so a single-cycle DSP \
         MAC only helps the int8 baseline. The paper's choice of DSP-less \
         M0/M3 targets is where weight pools shine brightest; sub-byte \
         bitwidths keep a margin even against the M4.",
    );
    t.to_markdown()
}

/// A registered experiment: its `run_all --only` name, its report title
/// and the function that renders it.
pub type NamedExperiment = (&'static str, &'static str, fn(Effort) -> String);

/// Every experiment, in report order.
pub const EXPERIMENTS: &[NamedExperiment] = &[
    ("table3_compression", "Table 3", |_| table3_compression()),
    ("compression_formula_check", "Eq. 3/4", |_| compression_formula_check()),
    ("fig7_layer_optimizations", "Figure 7", fig7_layer_optimizations),
    ("fig8_activation_speedup", "Figure 8", fig8_activation_speedup),
    ("table7_full_network", "Table 7", table7_full_network),
    ("table1_group_size", "Table 1", table1_group_size),
    ("fig4_pool_dimension", "Figure 4", fig4_pool_dimension),
    ("table4_pool_size", "Table 4", table4_pool_size),
    ("table5_lut_bitwidth", "Table 5", table5_lut_bitwidth),
    ("table6_activation_bitwidth", "Table 6", table6_activation_bitwidth),
    ("sec55_binarized", "S5.5", sec55_binarized),
    ("footnote1_fc_compression", "Footnote 1", footnote1_fc_compression),
    ("ablation_metric", "Metric ablation", ablation_metric),
    ("ablation_lut_order", "LUT-order ablation", ablation_lut_order),
    ("ablation_m4_baseline", "M4-baseline ablation", ablation_m4_baseline),
];

/// Runs every experiment and returns the combined report.
pub fn run_all(effort: Effort) -> String {
    let mut out = String::new();
    for (_, title, run_fn) in EXPERIMENTS {
        eprintln!("[run_all] running {title} ...");
        let started = std::time::Instant::now();
        out.push_str(&run_fn(effort));
        out.push('\n');
        eprintln!("[run_all] {title} done in {:.1}s", started.elapsed().as_secs_f32());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_is_deterministic_and_complete() {
        let a = table3_compression();
        let b = table3_compression();
        assert_eq!(a, b);
        for name in ["TinyConv", "ResNet-s", "ResNet-10", "ResNet-14", "MobileNet-v2"] {
            assert!(a.contains(name), "missing {name}");
        }
    }

    #[test]
    fn compression_formula_table_renders() {
        let s = compression_formula_check();
        assert!(s.contains("16.0"), "64-pool LUT should be 16 kB:\n{s}");
    }

    #[test]
    fn fig7_runs_fast() {
        let s = fig7_layer_optimizations(Effort { fast: true });
        assert!(s.contains("Figure 7"));
        assert!(s.contains("32"));
    }
}
