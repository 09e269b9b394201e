//! Property-based tests for the channel substrate.

use hb_channel::fading::Fading;
use hb_channel::fault::FaultPlan;
use hb_channel::geometry::{Placement, Point};
use hb_channel::medium::{Medium, MediumConfig};
use hb_channel::pathloss::PathlossModel;
use hb_channel::txsched::TxScheduler;
use hb_dsp::complex::C64;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

proptest! {
    /// Pathloss is monotone non-decreasing in distance.
    #[test]
    fn pathloss_monotone(d1 in 0.01f64..50.0, d2 in 0.01f64..50.0) {
        let m = PathlossModel::mics_indoor();
        let (near, far) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(m.air_loss_db(near) <= m.air_loss_db(far) + 1e-9);
    }

    /// Link loss is symmetric in its endpoints for any placement combo.
    #[test]
    fn link_loss_symmetric(
        x1 in -30.0f64..30.0, y1 in -30.0f64..30.0,
        x2 in -30.0f64..30.0, y2 in -30.0f64..30.0,
        los1 in any::<bool>(), los2 in any::<bool>(),
        body1 in any::<bool>(), body2 in any::<bool>(),
    ) {
        let m = PathlossModel::mics_indoor();
        let make = |l: &str, x: f64, y: f64, los: bool, body: bool| {
            let mut p = if los { Placement::los(l, x, y) } else { Placement::nlos(l, x, y) };
            if body { p = p.implanted(); }
            p
        };
        let a = make("a", x1, y1, los1, body1);
        let b = make("b", x2, y2, los2, body2);
        prop_assert!((m.link_loss_db(&a, &b) - m.link_loss_db(&b, &a)).abs() < 1e-12);
    }

    /// Distance is a metric (triangle inequality on random triples).
    #[test]
    fn distance_triangle(
        ax in -10f64..10.0, ay in -10f64..10.0,
        bx in -10f64..10.0, by in -10f64..10.0,
        cx in -10f64..10.0, cy in -10f64..10.0,
    ) {
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        let c = Point::new(cx, cy);
        prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9);
    }

    /// The medium is linear: doubling the transmit amplitude doubles the
    /// received amplitude (noise disabled).
    #[test]
    fn medium_linearity(amp in 0.1f64..10.0, gain_db in -80.0f64..0.0) {
        let mut m = Medium::new(
            MediumConfig { noise_floor_dbm: -300.0, ..Default::default() },
            1,
        );
        let tx = m.add_antenna(Placement::los("tx", 0.0, 0.0));
        let rx = m.add_antenna(Placement::los("rx", 1.0, 0.0));
        let g = C64::from_polar(hb_dsp::units::amplitude_from_db(gain_db), 0.3);
        m.set_gain(tx, rx, g);

        m.transmit(tx, 0, &vec![C64::real(amp); 16]);
        let y1 = m.receive(rx, 0);
        m.end_block();
        m.transmit(tx, 0, &vec![C64::real(2.0 * amp); 16]);
        let y2 = m.receive(rx, 0);
        for (a, b) in y1.iter().zip(&y2) {
            prop_assert!((b.abs() - 2.0 * a.abs()).abs() < 1e-9 * (1.0 + a.abs()));
        }
    }

    /// A scheduled burst is reproduced sample-exactly at any offset and
    /// any block size boundary.
    #[test]
    fn txsched_sample_exact(offset in 0u64..100, len in 1usize..200) {
        let mut m = Medium::new(
            MediumConfig { noise_floor_dbm: -300.0, ..Default::default() },
            2,
        );
        let tx = m.add_antenna(Placement::los("tx", 0.0, 0.0));
        let rx = m.add_antenna(Placement::los("rx", 1.0, 0.0));
        m.set_gain(tx, rx, C64::ONE);
        let wave: Vec<C64> = (0..len).map(|i| C64::new(i as f64 + 1.0, -(i as f64))).collect();
        let mut sched = TxScheduler::new();
        sched.schedule(offset, 0, wave.clone());
        let mut rx_all = Vec::new();
        let blocks = (offset as usize + len) / 16 + 2;
        for _ in 0..blocks {
            sched.produce(tx, &mut m);
            rx_all.extend(m.receive(rx, 0));
            m.end_block();
        }
        for (i, expected) in wave.iter().enumerate() {
            prop_assert!((rx_all[offset as usize + i] - *expected).abs() < 1e-9);
        }
        // Silence before and after.
        if offset > 0 {
            prop_assert!(rx_all[offset as usize - 1].abs() < 1e-9);
        }
        prop_assert!(rx_all[offset as usize + len].abs() < 1e-9);
    }

    /// Fading draws preserve unit mean power for any Rician K.
    #[test]
    fn rician_unit_power(k in 0.0f64..50.0, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 4000;
        let p: f64 = (0..n).map(|_| Fading::Rician(k).draw(&mut rng).norm_sq()).sum::<f64>() / n as f64;
        prop_assert!((p - 1.0).abs() < 0.2, "power {}", p);
    }

    /// At a cull margin of −∞ the sparse engine IS the dense engine: with
    /// noise disabled, the received block is bit-identical to the dense
    /// reference sum Σ_tx g(tx,rx)·s_tx accumulated in staging order.
    #[test]
    fn neg_inf_margin_is_bitwise_dense(
        n in 2usize..6,
        seed in any::<u64>(),
        gains_db in prop::collection::vec(-120.0f64..-10.0, 25),
        amps in prop::collection::vec(0.05f64..2.0, 5),
    ) {
        let cfg = MediumConfig {
            noise_floor_dbm: f64::NEG_INFINITY,
            ..Default::default()
        };
        prop_assert!(cfg.cull_margin_db == f64::NEG_INFINITY);
        let mut m = Medium::new(cfg, seed);
        for i in 0..n {
            m.add_antenna(Placement::los("ant", i as f64, 0.0));
        }
        let mut k = 0;
        for tx in 0..n {
            for rx in 0..n {
                if tx != rx {
                    let amp = hb_dsp::units::amplitude_from_db(gains_db[k]);
                    m.set_gain(tx, rx, C64::from_polar(amp, 0.1 * k as f64));
                    k += 1;
                }
            }
        }
        let waves: Vec<Vec<C64>> = (0..n)
            .map(|tx| (0..16).map(|i| C64::new(amps[tx % amps.len()], 0.01 * i as f64)).collect())
            .collect();
        for (tx, wave) in waves.iter().enumerate() {
            m.transmit(tx, 0, wave);
        }
        for rx in 0..n {
            let got = m.receive(rx, 0);
            // Dense reference: same staging order, same per-sample MAC
            // expression, starting from an all-zero (noiseless) buffer.
            let mut want = vec![C64::ZERO; 16];
            for (tx, wave) in waves.iter().enumerate() {
                let g = m.gain(tx, rx);
                if g == C64::ZERO {
                    continue;
                }
                for (v, &s) in want.iter_mut().zip(wave) {
                    *v += s * g;
                }
            }
            for (a, b) in got.iter().zip(&want) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    /// Sparse-with-margin receive differs from the −∞ (dense) twin by at
    /// most the guaranteed sub-noise-floor bound: each culled staged pair
    /// contributes less than √(floor·10^(margin/10))·max|s| per sample.
    #[test]
    fn finite_margin_error_is_sub_floor_bounded(
        n in 2usize..6,
        seed in any::<u64>(),
        margin_db in -20.0f64..20.0,
        gains_db in prop::collection::vec(-160.0f64..-20.0, 25),
        amps in prop::collection::vec(0.05f64..1.0, 5),
    ) {
        let floor_dbm = -100.0;
        let dense_cfg = MediumConfig { noise_floor_dbm: floor_dbm, ..Default::default() };
        let sparse_cfg = MediumConfig {
            noise_floor_dbm: floor_dbm,
            cull_margin_db: margin_db,
            ..Default::default()
        };
        let mut dense = Medium::new(dense_cfg, seed);
        let mut sparse = Medium::new(sparse_cfg, seed);
        for i in 0..n {
            let p = Placement::los("ant", i as f64, 0.0);
            dense.add_antenna(p.clone());
            sparse.add_antenna(p);
        }
        let mut k = 0;
        for tx in 0..n {
            for rx in 0..n {
                if tx != rx {
                    let amp = hb_dsp::units::amplitude_from_db(gains_db[k]);
                    let g = C64::from_polar(amp, 0.2 * k as f64);
                    dense.set_gain(tx, rx, g);
                    sparse.set_gain(tx, rx, g);
                    k += 1;
                }
            }
        }
        let waves: Vec<Vec<C64>> = (0..n)
            .map(|tx| vec![C64::real(amps[tx % amps.len()]); 16])
            .collect();
        for (tx, wave) in waves.iter().enumerate() {
            dense.transmit(tx, 0, wave);
            sparse.transmit(tx, 0, wave);
        }
        // Identical seeds and identical RNG consumption (culling draws
        // nothing) → identical noise, so the difference is exactly the
        // culled contributions.
        let threshold = hb_dsp::units::ratio_from_db(floor_dbm)
            * hb_dsp::units::ratio_from_db(margin_db);
        for rx in 0..n {
            let yd = dense.receive(rx, 0);
            let ys = sparse.receive(rx, 0);
            let mut bound = 0.0;
            for tx in 0..n {
                if tx == rx {
                    continue;
                }
                if !sparse.pair_audible(tx, rx) {
                    let g = sparse.gain(tx, rx);
                    prop_assert!(g.norm_sq() < threshold, "culled pair must be sub-threshold");
                    bound += g.abs() * amps[tx % amps.len()];
                }
            }
            for (a, b) in yd.iter().zip(&ys) {
                prop_assert!((*a - *b).abs() <= bound + 1e-15, "diff {} > bound {}", (*a - *b).abs(), bound);
            }
        }
    }

    /// Moving one antenna invalidates only that antenna's rows: at most
    /// 2(n−1) pair updates, no full row rebuilds, and audibility flags
    /// stay consistent with a from-scratch evaluation.
    #[test]
    fn mobility_invalidation_is_row_scoped(
        n in 3usize..10,
        seed in any::<u64>(),
        moved in 0usize..10,
        dx in -5.0f64..5.0,
        dy in -5.0f64..5.0,
    ) {
        let moved = moved % n;
        let cfg = MediumConfig { cull_margin_db: 6.0, ..Default::default() };
        let mut m = Medium::new(cfg, seed);
        for i in 0..n {
            m.add_antenna(Placement::los("ant", 2.0 * i as f64, 0.0));
        }
        let model = PathlossModel::mics_indoor();
        m.build_links(&model, Fading::None);
        let before = m.cull_stats();
        m.move_antenna(moved, Placement::los("ant", 2.0 * moved as f64 + dx, dy), &model, Fading::None);
        let after = m.cull_stats();
        prop_assert_eq!(after.rows_rebuilt, before.rows_rebuilt);
        prop_assert!(after.pair_updates - before.pair_updates <= 2 * (n as u64 - 1));
        // Default floor is −112 dBm; margin was set to 6 dB above.
        let threshold = hb_dsp::units::ratio_from_db(-112.0)
            * hb_dsp::units::ratio_from_db(6.0);
        for tx in 0..n {
            let expect = m.gain(tx, moved).norm_sq() >= threshold;
            prop_assert_eq!(m.pair_audible(tx, moved), expect);
        }
    }

    /// Faults-off ≡ today, and the fault stream is isolated: a medium with
    /// an armed storm plan is *bit-identical* to its unarmed twin on every
    /// channel outside the storm mask, across multiple blocks. The armed
    /// plan draws its hazards from a dedicated stream and its storm noise
    /// after the slot's floor draws, so every receive the faults don't
    /// touch matches the fault-free engine exactly. (The default
    /// `FaultPlan::none()` config doesn't even arm the state, so it is a
    /// fortiori bit-identical to the pre-fault engine.)
    #[test]
    fn armed_fault_stream_is_isolated_from_main_stream(
        seed in any::<u64>(),
        storm_ch in 0usize..10,
        clean_ch in 0usize..10,
        storm_dbm in -80.0f64..-40.0,
        amp in 0.05f64..2.0,
        blocks in 1usize..6,
    ) {
        prop_assume!(storm_ch != clean_ch);
        let clean_cfg = MediumConfig::default();
        let armed_cfg = MediumConfig {
            fault: FaultPlan {
                storm_start_prob: 1.0,
                storm_len_blocks: 3,
                storm_power_dbm: storm_dbm,
                storm_channel_mask: 1 << storm_ch,
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let mut clean = Medium::new(clean_cfg, seed);
        let mut armed = Medium::new(armed_cfg, seed);
        for m in [&mut clean, &mut armed] {
            let tx = m.add_antenna(Placement::los("tx", 0.0, 0.0));
            let rx = m.add_antenna(Placement::los("rx", 1.0, 0.0));
            m.set_gain(tx, rx, C64::from_polar(0.5, 0.7));
        }
        let wave = vec![C64::real(amp); 16];
        for _ in 0..blocks {
            clean.transmit(0, clean_ch, &wave);
            armed.transmit(0, clean_ch, &wave);
            // Same receive order on both media: first the clean channel,
            // then the stormed one.
            let yc = clean.receive(1, clean_ch);
            let ya = armed.receive(1, clean_ch);
            for (a, b) in ya.iter().zip(&yc) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
            // On the masked channel the storm adds power on top of the
            // *same* floor noise draw. (A burst runs down before the
            // next can start, so one block in `storm_len_blocks + 1` is
            // storm-free even at start probability 1.)
            let pc = hb_dsp::complex::mean_power(&clean.receive(1, storm_ch));
            let pa = hb_dsp::complex::mean_power(&armed.receive(1, storm_ch));
            if armed.fault_storm_active() {
                prop_assert!(
                    pa > pc,
                    "storm power {pa} not above clean floor {pc} on masked channel"
                );
            } else {
                prop_assert_eq!(pa.to_bits(), pc.to_bits());
            }
            clean.end_block();
            armed.end_block();
        }
    }

    /// A gain dropout is a pure signal fade: receiver noise is untouched
    /// (bit-identical to an unarmed twin's noise) and the signal term is
    /// scaled by exactly `10^(-depth/20)`.
    #[test]
    fn dropout_is_pure_signal_fade(
        seed in any::<u64>(),
        depth_db in 10.0f64..60.0,
        amp in 0.1f64..2.0,
        gain_db in -60.0f64..-10.0,
    ) {
        let fault = FaultPlan {
            dropout_start_prob: 1.0,
            dropout_len_blocks: 4,
            dropout_depth_db: depth_db,
            ..FaultPlan::none()
        };
        let clean_cfg = MediumConfig::default();
        let armed_cfg = MediumConfig { fault, ..Default::default() };
        let mut clean = Medium::new(clean_cfg, seed);
        let mut armed = Medium::new(armed_cfg, seed);
        let mut noise_twin = Medium::new(clean_cfg, seed);
        for m in [&mut clean, &mut armed, &mut noise_twin] {
            let tx = m.add_antenna(Placement::los("tx", 0.0, 0.0));
            let rx = m.add_antenna(Placement::los("rx", 1.0, 0.0));
            let g = C64::from_polar(hb_dsp::units::amplitude_from_db(gain_db), 0.3);
            m.set_gain(tx, rx, g);
        }
        let wave = vec![C64::new(amp, 0.5 * amp); 16];
        clean.transmit(0, 0, &wave);
        armed.transmit(0, 0, &wave);
        // The noise twin stages nothing: identical seed and identical
        // draw sequence, so its receive IS the shared noise realization.
        let yc = clean.receive(1, 0);
        prop_assert!(armed.fault_dropout_active());
        let ya = armed.receive(1, 0);
        let yn = noise_twin.receive(1, 0);
        let fade = hb_dsp::units::ratio_from_db(-depth_db).sqrt();
        for ((a, c), n) in ya.iter().zip(yc).zip(yn) {
            // Signal terms: receive minus the shared noise realization.
            let sa = *a - n;
            let sc = c - n;
            let err = (sa - sc.scale(fade)).abs();
            prop_assert!(
                err < 1e-12 * (1.0 + sc.abs()),
                "faded signal off by {err}"
            );
        }
    }

    /// Receiver noise is keyed per (antenna, channel, block): reading one
    /// block's views in a random (rx, ch) permutation — with some levels
    /// probed through `receive_power` first — gives views bit-identical to
    /// canonical order, with impulse noise and an active storm in play.
    #[test]
    fn views_are_read_order_independent(
        seed in any::<u64>(),
        n in 2usize..5,
        order_seed in any::<u64>(),
        storm_mask in any::<u16>(),
        blocks in 1usize..4,
    ) {
        let cfg = MediumConfig {
            fault: FaultPlan {
                storm_start_prob: 1.0,
                storm_len_blocks: 8,
                storm_power_dbm: -70.0,
                storm_channel_mask: storm_mask,
                ..FaultPlan::none()
            },
            ..Default::default()
        };
        let build = || {
            let mut m = Medium::new(cfg, seed);
            for i in 0..n {
                m.add_antenna(Placement::los("ant", 2.0 * i as f64, 0.0));
            }
            m.build_links(&PathlossModel::mics_indoor(), Fading::Rayleigh);
            m.set_cfo_hz(0, 1500.0);
            m.set_impulse_noise(0.4, -75.0);
            m
        };
        let (mut canon, mut shuffled) = (build(), build());
        let channels = canon.config().n_channels;
        let slots: Vec<(usize, usize)> = (0..n)
            .flat_map(|rx| (0..channels).map(move |ch| (rx, ch)))
            .collect();
        let mut rng = StdRng::seed_from_u64(order_seed);
        let wave = vec![C64::new(1e-4, -2e-4); 16];
        for b in 0..blocks {
            for m in [&mut canon, &mut shuffled] {
                prop_assert!(m.fault_storm_active());
                m.transmit(0, b % channels, &wave);
                m.transmit(n - 1, 3, &wave);
            }
            let want: Vec<Vec<C64>> = slots.iter().map(|&(rx, ch)| canon.receive(rx, ch)).collect();
            let mut order: Vec<usize> = (0..slots.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            for &i in order.iter().step_by(3) {
                shuffled.receive_power(slots[i].0, slots[i].1);
            }
            let mut got = vec![Vec::new(); slots.len()];
            for &i in &order {
                got[i] = shuffled.receive(slots[i].0, slots[i].1);
            }
            for (k, (w, g)) in want.iter().zip(&got).enumerate() {
                for (a, c) in w.iter().zip(g) {
                    prop_assert!(
                        a.re.to_bits() == c.re.to_bits() && a.im.to_bits() == c.im.to_bits(),
                        "slot {:?} differs by read order", slots[k]
                    );
                }
            }
            canon.end_block();
            shuffled.end_block();
        }
    }

    /// `receive_power` is the view's mean power. On noise-only slots (a
    /// transmitter staged on another channel, one with zero gain on this
    /// one) it comes from the key's radius uniforms: within 1e-9 relative
    /// of `mean_power(receive_view)`, and the same bits before and after
    /// the view is materialized. Impulse bursts take the view path.
    #[test]
    fn receive_power_matches_the_view(
        seed in any::<u64>(),
        floor_dbm in -120.0f64..-60.0,
        blocks in 1usize..8,
    ) {
        let mut m = Medium::new(MediumConfig::default(), seed);
        let tx = m.add_antenna(Placement::los("tx", 0.0, 0.0));
        let deaf = m.add_antenna(Placement::los("deaf", 1.0, 0.0));
        let rx = m.add_antenna(Placement::los("rx", 2.0, 0.0));
        m.set_gain(tx, rx, C64::new(1e-3, 0.0));
        m.set_noise_floor_dbm(rx, floor_dbm);
        m.set_impulse_noise(0.2, floor_dbm + 20.0);
        let wave = vec![C64::ONE; 16];
        for _ in 0..blocks {
            m.transmit(tx, 1, &wave);
            m.transmit(deaf, 2, &wave);
            for ch in [0, 2] {
                let before = m.receive_power(rx, ch);
                let view = hb_dsp::complex::mean_power(m.receive_view(rx, ch));
                let after = m.receive_power(rx, ch);
                prop_assert!((before - view).abs() <= 1e-9 * view, "{before} vs {view}");
                prop_assert_eq!(before.to_bits(), after.to_bits());
            }
            // A slot with signal is exactly the view's mean power.
            let view = hb_dsp::complex::mean_power(m.receive_view(rx, 1));
            prop_assert_eq!(m.receive_power(rx, 1).to_bits(), view.to_bits());
            m.end_block();
        }
    }

    /// `squelch_open(rx, ch, t)` is exactly `receive_power(rx, ch) > t`,
    /// with the noise floor on both sides of the closed-squelch bound
    /// (`floor · 53 ln 2` against `t`), impulse noise on and off, a storm
    /// on some channels, and signals staged near the threshold. Later
    /// views are untouched by either read.
    #[test]
    fn squelch_open_equivalence_with_receive_power(
        seed in any::<u64>(),
        threshold_dbm in -105.0f64..-85.0,
        floor_below_db in -3.0f64..25.0,
        impulse in any::<bool>(),
        storm_mask in any::<u16>(),
        storm in any::<bool>(),
        signal_db in -10.0f64..10.0,
        blocks in 1usize..6,
    ) {
        let cfg = MediumConfig {
            fault: if storm {
                FaultPlan {
                    storm_start_prob: 0.5,
                    storm_len_blocks: 2,
                    storm_power_dbm: threshold_dbm - 5.0,
                    storm_channel_mask: storm_mask,
                    ..FaultPlan::none()
                }
            } else {
                FaultPlan::none()
            },
            ..Default::default()
        };
        let floor_dbm = threshold_dbm - floor_below_db;
        let build = || {
            let mut m = Medium::new(cfg, seed);
            let tx = m.add_antenna(Placement::los("tx", 0.0, 0.0));
            let deaf = m.add_antenna(Placement::los("deaf", 1.0, 0.0));
            let rx = m.add_antenna(Placement::los("rx", 2.0, 0.0));
            m.set_gain(tx, rx, C64::ONE);
            m.set_noise_floor_dbm(rx, floor_dbm);
            if impulse {
                m.set_impulse_noise(0.3, threshold_dbm);
            }
            (m, tx, deaf, rx)
        };
        let (mut squelched, tx, deaf, rx) = build();
        let (mut powered, ..) = build();
        let threshold = hb_dsp::units::ratio_from_db(threshold_dbm);
        let amp = hb_dsp::units::ratio_from_db(threshold_dbm + signal_db).sqrt();
        let wave = vec![C64::new(amp, 0.0); 16];
        let channels = squelched.config().n_channels;
        for b in 0..blocks {
            for m in [&mut squelched, &mut powered] {
                m.transmit(tx, b % channels, &wave);
                m.transmit(deaf, (b + 1) % channels, &wave);
            }
            let mut powers = Vec::new();
            for ch in 0..channels {
                let open = squelched.squelch_open(rx, ch, threshold);
                let power = powered.receive_power(rx, ch);
                prop_assert!(open == (power > threshold), "channel {ch}: {open} at {power}");
                powers.push(power);
            }
            for (ch, power) in powers.into_iter().enumerate() {
                let (a, c) = (squelched.receive(rx, ch), powered.receive(rx, ch));
                prop_assert!(a.iter().zip(&c).all(|(x, y)| {
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
                }));
                // And the level is the view's (the storm is in both).
                let view = hb_dsp::complex::mean_power(&a);
                prop_assert!((power - view).abs() <= 1e-9 * view, "{power} vs {view}");
            }
            squelched.end_block();
            powered.end_block();
        }
    }

    /// Distribution of the noise-only fast path: the mean power of 16
    /// circular Gaussian samples over the floor is Γ(16, 1/16). A
    /// Kolmogorov–Smirnov test over 2000 slots (antennas × channels ×
    /// blocks) at a 1e-6 false-alarm level.
    #[test]
    fn noise_only_receive_power_is_gamma_16(
        seed in any::<u64>(),
        floor_dbm in -120.0f64..-60.0,
    ) {
        let mut m = Medium::new(MediumConfig::default(), seed);
        for i in 0..4 {
            let a = m.add_antenna(Placement::los("ant", i as f64, 0.0));
            m.set_noise_floor_dbm(a, floor_dbm);
        }
        let floor = hb_dsp::units::ratio_from_db(floor_dbm);
        let block_len = m.config().block_len;
        prop_assert_eq!(block_len, 16);
        let mut xs = Vec::new();
        for _ in 0..50 {
            for rx in 0..4 {
                for ch in 0..10 {
                    xs.push(m.receive_power(rx, ch) / floor);
                }
            }
            m.end_block();
        }
        xs.sort_by(f64::total_cmp);
        let count = xs.len() as f64;
        let d = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let f = gamma_cdf_16(x);
                (f - i as f64 / count).max((i + 1) as f64 / count - f)
            })
            .fold(0.0, f64::max);
        // P(√n·D > 2.7) ≈ 2e-6 under the null.
        prop_assert!(d * count.sqrt() < 2.7, "KS statistic {d} over {count} slots");
    }
}

proptest! {
    /// The strided pair matrices agree with a plain `(tx, rx) → gain` map
    /// over random sequences of registrations, explicit gains, link
    /// builds (which compact the stride) and moves, at the −∞ and at a
    /// finite cull margin: every gain and audibility flag, all four
    /// `cull_stats` fields, and every receiver's view of a block in which
    /// all antennas transmit.
    #[test]
    fn strided_pairs_match_a_map_reference(
        seed in any::<u64>(),
        finite_margin in any::<bool>(),
        ops in prop::collection::vec(
            (0u8..20, any::<u64>(), -160.0f64..-20.0, 0.0f64..30.0, 0.0f64..12.0),
            1..48,
        ),
    ) {
        let cfg = MediumConfig {
            cull_margin_db: if finite_margin { 12.0 } else { f64::NEG_INFINITY },
            ..Default::default()
        };
        let model = PathlossModel::mics_indoor();
        let fading = Fading::Rayleigh;
        let mut m = Medium::new(cfg, seed);
        // Same seed, no gains: its views are the noise alone.
        let mut noise = Medium::new(cfg, seed);
        let floor = hb_dsp::units::ratio_from_db(cfg.noise_floor_dbm);
        let mut r = RefPairs::new(seed, floor * hb_dsp::units::ratio_from_db(cfg.cull_margin_db));
        for (kind, pick, gain_db, x, y) in ops {
            let n = r.placements.len();
            let (a, b) = ((pick % 64) as usize, (pick >> 32) as usize);
            match kind {
                0..=7 => {
                    let p = Placement::los("ant", x, y);
                    prop_assert_eq!(m.add_antenna(p.clone()), n);
                    noise.add_antenna(p.clone());
                    r.add(p);
                }
                8..=12 if n > 0 => {
                    let g = C64::from_polar(hb_dsp::units::amplitude_from_db(gain_db), x);
                    m.set_gain(a % n, b % n, g);
                    r.set(a % n, b % n, g, Provenance::Explicit);
                }
                13..=15 => {
                    m.build_links(&model, fading);
                    r.build(&model, fading);
                }
                16..=19 if n > 0 => {
                    let p = Placement::los("ant", y, x);
                    m.move_antenna(a % n, p.clone(), &model, fading);
                    r.move_to(a % n, p, &model, fading);
                }
                _ => {}
            }
            let n = r.placements.len();
            let mut audible_pairs = 0;
            for tx in 0..n {
                for rx in 0..n {
                    let (got, want) = (m.gain(tx, rx), r.gain(tx, rx));
                    prop_assert!(
                        got.re.to_bits() == want.re.to_bits() && got.im.to_bits() == want.im.to_bits(),
                        "gain ({tx}, {rx}): {got:?} vs {want:?}"
                    );
                    prop_assert_eq!(m.pair_audible(tx, rx), r.audible(tx, rx));
                    audible_pairs += usize::from(r.audible(tx, rx));
                }
            }
            let stats = m.cull_stats();
            prop_assert_eq!(stats.rows_rebuilt, r.rows_rebuilt);
            prop_assert_eq!(stats.pair_updates, r.pair_updates);
            prop_assert_eq!(stats.audible_pairs, audible_pairs);
            prop_assert_eq!(stats.total_pairs, n * n);
            // One block: every antenna transmits its own wave on channel 0.
            let waves: Vec<Vec<C64>> = (0..n)
                .map(|tx| (0..16).map(|i| C64::new(1.0 + tx as f64, 0.1 * i as f64)).collect())
                .collect();
            for (tx, wave) in waves.iter().enumerate() {
                m.transmit(tx, 0, wave);
            }
            for rx in 0..n {
                let mut want = noise.receive(rx, 0);
                for (tx, wave) in waves.iter().enumerate() {
                    let g = r.gain(tx, rx);
                    if !r.audible(tx, rx) || g == C64::ZERO {
                        continue;
                    }
                    for (v, &s) in want.iter_mut().zip(wave) {
                        *v += s * g;
                    }
                }
                let got = m.receive_view(rx, 0);
                prop_assert!(
                    got.iter().zip(&want).all(|(a, c)| {
                        a.re.to_bits() == c.re.to_bits() && a.im.to_bits() == c.im.to_bits()
                    }),
                    "view at rx {rx} differs from the reference mixture"
                );
            }
            m.end_block();
            noise.end_block();
        }
    }
}

proptest! {
    /// `build_links`' chunked pass (all uniforms of a chunk drawn first,
    /// then the gain math, then the writes; later builds visit only pairs
    /// touching new antennas) matches a per-pair reference drawn with the
    /// scalar composition — `link_loss_db_shadowed`, then `Fading::draw` —
    /// for `None`, `Rayleigh` and `Rician(k)`: with explicit gains set
    /// before the first build, antennas added to the built medium and
    /// built again, and moves afterwards. Up to 44 antennas, so a build
    /// spans several chunks. Compares every gain's bits, every
    /// `pair_audible` and all four `cull_stats` fields after each step.
    #[test]
    fn link_pass_matches_per_pair_draws_across_fadings(
        seed in any::<u64>(),
        fading_pick in 0u8..3,
        k in 0.0f64..20.0,
        finite_margin in any::<bool>(),
        first in 2usize..40,
        added in 0usize..6,
        explicit in prop::collection::vec((any::<u64>(), -120.0f64..-20.0, 0.0f64..6.3), 0..10),
        moves in prop::collection::vec((any::<u64>(), 0.0f64..30.0, 0.0f64..12.0), 0..4),
    ) {
        let fading = match fading_pick {
            0 => Fading::None,
            1 => Fading::Rayleigh,
            _ => Fading::Rician(k),
        };
        let cfg = MediumConfig {
            cull_margin_db: if finite_margin { 12.0 } else { f64::NEG_INFINITY },
            ..Default::default()
        };
        let model = PathlossModel::mics_indoor();
        let floor = hb_dsp::units::ratio_from_db(cfg.noise_floor_dbm);
        let mut m = Medium::new(cfg, seed);
        let mut r = RefPairs::new(seed, floor * hb_dsp::units::ratio_from_db(cfg.cull_margin_db));
        // Positions up to 30 m apart straddle the 10 m breakpoint; every
        // third antenna is implanted and every fifth out of sight.
        let mut place = StdRng::seed_from_u64(seed ^ 0x9E37);
        let mut add = |m: &mut Medium, r: &mut RefPairs| {
            let i = r.placements.len();
            let (x, y) = (place.gen::<f64>() * 30.0, place.gen::<f64>() * 12.0);
            let p = if i % 5 == 4 { Placement::nlos("ant", x, y) } else { Placement::los("ant", x, y) };
            let p = if i.is_multiple_of(3) { p.implanted() } else { p };
            m.add_antenna(p.clone());
            r.add(p);
        };
        let set = |m: &mut Medium, r: &mut RefPairs, (pick, gain_db, phase): (u64, f64, f64)| {
            let n = r.placements.len();
            let (tx, rx) = ((pick % n as u64) as usize, ((pick >> 32) % n as u64) as usize);
            let g = C64::from_polar(hb_dsp::units::amplitude_from_db(gain_db), phase);
            m.set_gain(tx, rx, g);
            r.set(tx, rx, g, Provenance::Explicit);
        };
        let mut explicit = explicit.into_iter();
        for _ in 0..first {
            add(&mut m, &mut r);
        }
        for e in explicit.by_ref().take(6) {
            set(&mut m, &mut r, e);
        }
        m.build_links(&model, fading);
        r.build(&model, fading);
        same_pairs(&m, &r)?;
        for _ in 0..added {
            add(&mut m, &mut r);
        }
        for e in explicit {
            set(&mut m, &mut r, e);
        }
        m.build_links(&model, fading);
        r.build(&model, fading);
        same_pairs(&m, &r)?;
        for (pick, x, y) in moves {
            let a = (pick % r.placements.len() as u64) as usize;
            let p = Placement::los("moved", x, y);
            m.move_antenna(a, p.clone(), &model, fading);
            r.move_to(a, p, &model, fading);
            same_pairs(&m, &r)?;
        }
    }
}

/// Every gain (bit for bit), every audibility flag and all four
/// `cull_stats` fields of `m` agree with the reference.
fn same_pairs(m: &Medium, r: &RefPairs) -> Result<(), TestCaseError> {
    let n = r.placements.len();
    let mut audible_pairs = 0;
    for tx in 0..n {
        for rx in 0..n {
            let (got, want) = (m.gain(tx, rx), r.gain(tx, rx));
            prop_assert!(
                got.re.to_bits() == want.re.to_bits() && got.im.to_bits() == want.im.to_bits(),
                "gain ({tx}, {rx}): {got:?} vs {want:?}"
            );
            prop_assert_eq!(m.pair_audible(tx, rx), r.audible(tx, rx));
            audible_pairs += usize::from(r.audible(tx, rx));
        }
    }
    let stats = m.cull_stats();
    prop_assert_eq!(stats.rows_rebuilt, r.rows_rebuilt);
    prop_assert_eq!(stats.pair_updates, r.pair_updates);
    prop_assert_eq!(stats.audible_pairs, audible_pairs);
    prop_assert_eq!(stats.total_pairs, n * n);
    Ok(())
}

/// Provenance of a [`RefPairs`] entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Provenance {
    Drawn,
    Explicit,
}

/// Reference for the medium's pair bookkeeping: a `(tx, rx) → gain` map
/// (absent means never written) and a replica of the medium's build-time
/// stream, which `build_links` and `move_antenna` draw from in pair
/// order.
struct RefPairs {
    placements: Vec<Placement>,
    gains: HashMap<(usize, usize), (C64, Provenance)>,
    rng: StdRng,
    /// Cull threshold, linear gain power (every receiver has the default
    /// floor).
    threshold: f64,
    rows_rebuilt: u64,
    pair_updates: u64,
}

impl RefPairs {
    fn new(seed: u64, threshold: f64) -> Self {
        RefPairs {
            placements: Vec::new(),
            gains: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
            threshold,
            rows_rebuilt: 0,
            pair_updates: 0,
        }
    }

    fn gain(&self, tx: usize, rx: usize) -> C64 {
        self.gains.get(&(tx, rx)).map_or(C64::ZERO, |e| e.0)
    }

    fn provenance(&self, tx: usize, rx: usize) -> Option<Provenance> {
        self.gains.get(&(tx, rx)).map(|e| e.1)
    }

    fn audible(&self, tx: usize, rx: usize) -> bool {
        self.gain(tx, rx).norm_sq() >= self.threshold
    }

    /// Registration recomputes the new receiver's row.
    fn add(&mut self, p: Placement) {
        self.placements.push(p);
        self.rows_rebuilt += 1;
    }

    fn set(&mut self, tx: usize, rx: usize, g: C64, provenance: Provenance) {
        self.gains.insert((tx, rx), (g, provenance));
        self.pair_updates += 1;
    }

    fn draw(&mut self, model: &PathlossModel, fading: Fading, a: usize, b: usize) -> C64 {
        let loss_db =
            model.link_loss_db_shadowed(&self.placements[a], &self.placements[b], &mut self.rng);
        fading
            .draw(&mut self.rng)
            .scale(hb_dsp::units::ratio_from_db(-loss_db).sqrt())
    }

    /// Draws every pair neither of whose directions was ever written.
    fn build(&mut self, model: &PathlossModel, fading: Fading) {
        let n = self.placements.len();
        for a in 0..n {
            for b in a + 1..n {
                if self.gains.contains_key(&(a, b)) || self.gains.contains_key(&(b, a)) {
                    continue;
                }
                let g = self.draw(model, fading, a, b);
                self.set(a, b, g, Provenance::Drawn);
                self.set(b, a, g, Provenance::Drawn);
            }
        }
    }

    /// Re-draws the drawn directions of every pair touching `a`.
    fn move_to(&mut self, a: usize, p: Placement, model: &PathlossModel, fading: Fading) {
        self.placements[a] = p;
        for b in 0..self.placements.len() {
            let ab = self.provenance(a, b) == Some(Provenance::Drawn);
            let ba = self.provenance(b, a) == Some(Provenance::Drawn);
            if b == a || !(ab || ba) {
                continue;
            }
            let g = self.draw(model, fading, a, b);
            if ab {
                self.set(a, b, g, Provenance::Drawn);
            }
            if ba {
                self.set(b, a, g, Provenance::Drawn);
            }
        }
    }
}

/// CDF of Γ(shape 16, scale 1/16) — the mean of 16 unit exponentials —
/// via the integer-shape series `1 − e^{−y} Σ_{i<16} yⁱ/i!`, `y = 16x`.
fn gamma_cdf_16(x: f64) -> f64 {
    let y = 16.0 * x;
    let mut term = 1.0;
    let mut sum = 1.0;
    for i in 1..16 {
        term *= y / i as f64;
        sum += term;
    }
    1.0 - (-y).exp() * sum
}
