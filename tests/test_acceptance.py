"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Scenario seeds are fixed; every run is deterministic.
"""

import hashlib
import time
import warnings
from pathlib import Path

import numpy as np
from oracles import (
    contact_point,
    contact_targets,
    generalized_position,
    inverse_dynamics_scalar,
    random_rotation,
    solve_frame_grounded,
    world_to_camera,
)

from physmotion.frames import (
    FilterParams,
    RigidTransform,
    hand_eye_calibrate,
    camera_to_world,
    one_euro_filter,
)
from physmotion.humanoid import (
    NV,
    GeneralizedState,
    default_model,
    forward_kinematics,
    frame_dynamics,
)
from physmotion.metrics import (
    foot_sliding,
    mpjpe,
    pa_mpjpe,
    penetration_stats,
    rte,
    w_mpjpe,
    wa_mpjpe,
)
from physmotion.motion import MotionSequence, sequence_from_generalized
from physmotion.optimizer import (
    QPSettings,
    ReferenceFrameInput,
    refine_sequence,
    root_supervision_accel,
)
from physmotion.pipeline import RunConfig, filter_motion, run_pipeline
from physmotion.scene import build_height_map, make_box_mesh, query_height
from physmotion.synth import SyntheticScenario, generate_scenario

warnings.filterwarnings("ignore")

MODEL = default_model()


def _announce(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _filtered_reference(seq, contacts, min_cutoff=1.0, beta=0.7):
    filt = filter_motion(seq, FilterParams(min_cutoff=min_cutoff, beta=beta))
    q = np.array([generalized_position(filt, t) for t in range(len(filt))])
    return sequence_from_generalized(60.0, q, MODEL, contacts)


def test_criterion_1_dynamics_identities():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_id = worst_sym = worst_jac = 0.0
    for _ in range(100):
        q = np.concatenate([rng.normal(size=3), rng.normal(size=72) * 0.6])
        qd = rng.normal(size=NV)
        qdd = rng.normal(size=NV)
        dyn = frame_dynamics(MODEL, q, qd)
        m, h = dyn.m, dyn.h
        lhs = inverse_dynamics_scalar(MODEL, q, qd, qdd)
        worst_id = max(worst_id, np.abs(lhs - (m @ qdd + h)).max() / (1.0 + np.abs(h).max()))
        worst_sym = max(worst_sym, np.abs(m - m.T).max())
        np.linalg.cholesky(m)
        body = int(rng.integers(0, 24))
        lp = rng.normal(size=3) * 0.1
        jac = dyn.points([body], lp).jacobian[0]
        eps = 1e-6
        fk0 = forward_kinematics(MODEL, q)
        fk1 = forward_kinematics(MODEL, q + eps * qd)
        p0 = fk0.positions[body] + fk0.rotations[body] @ lp
        p1 = fk1.positions[body] + fk1.rotations[body] @ lp
        v_fd = (p1 - p0) / eps
        v = jac @ qd
        worst_jac = max(worst_jac, np.abs(v_fd - v).max() / max(1.0, np.abs(v).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_id <= 1e-8 and worst_sym <= 1e-10 and worst_jac <= 1e-5 and elapsed < 5.0
    _announce(
        "criterion 1 (dynamics identities)",
        ok,
        f"ID rel {worst_id:.2e} <= 1e-8, sym {worst_sym:.2e} <= 1e-10, "
        f"jac {worst_jac:.2e} <= 1e-5, {elapsed:.1f}s < 5s",
    )


SUITE_SCENARIOS = [
    ("flat stand", SyntheticScenario("flat", "stand", 0.05, 0.01, 2.0, 1), 0.0),
    ("ramp stand injected", SyntheticScenario("ramp", "stand", 0.06, 0.0, 2.0, 2), -0.05),
    ("flat squat", SyntheticScenario("flat", "squat", 0.02, 0.0, 2.0, 3), 0.0),
    ("ramp walk", SyntheticScenario("ramp", "walk", 0.0, 0.0, 4.0, 4), 0.0),
]


def test_criterion_2_constraint_satisfaction():
    """Re-run every suite scenario stepping solve_frame directly, so the
    exact (state, velocity) pair behind each accepted frame is available for
    residual checks."""
    from physmotion.humanoid import integrate

    settings = QPSettings()
    dt = 1.0 / 60.0
    worst_eom = worst_cone = worst_drift = 0.0
    tau_root_ok = True
    degraded_total = 0

    for name, scenario, inject in SUITE_SCENARIOS:
        bundle = generate_scenario(scenario, MODEL)
        hm = build_height_map(bundle.mesh, (128, 128))
        q = np.array([generalized_position(bundle.noisy, t) for t in range(len(bundle.noisy))])
        q[:, 1] += inject
        raw = sequence_from_generalized(60.0, q, MODEL, bundle.contacts)
        if scenario.noise_sigma > 0.0 or scenario.drift_rate > 0.0:
            mc = 0.004 if inject else 1.0
            seq = _filtered_reference(raw, bundle.contacts, min_cutoff=mc)
        else:
            seq = raw
        n = len(seq)
        q_refs = seq.generalized_positions()
        state = GeneralizedState(q_refs[0].copy(), (q_refs[1] - q_refs[0]) / dt)
        sol = None
        for t in range(n):
            future = q_refs[t + 1 : t + 3, 0:3] if t + 2 < n else None
            ref = ReferenceFrameInput(q_refs[t], contact_targets(MODEL, q_refs[t]), bundle.contacts[t], future)
            sol = solve_frame_grounded(MODEL, state, ref, hm, settings, dt=dt, previous=sol)
            degraded_total += sol.degraded
            dyn = frame_dynamics(MODEL, state.q, state.qd)
            m, h = dyn.m, dyn.h
            jt_lambda = np.zeros(NV)
            for cname, force in zip(sol.contact_names, sol.contact_forces):
                body, off = contact_point(MODEL, cname)
                fk_c = forward_kinematics(MODEL, state.q)
                pos = fk_c.positions[body] + fk_c.rotations[body] @ off
                jt_lambda += dyn.points([body], off).jacobian[0].T @ force
                # rebuild the contact frame from the surface independently
                d = hm.cell_size
                dhdx = (query_height(hm, pos[0] + d, pos[2]) - query_height(hm, pos[0] - d, pos[2])) / (2 * d)
                dhdz = (query_height(hm, pos[0], pos[2] + d) - query_height(hm, pos[0], pos[2] - d)) / (2 * d)
                nvec = np.array([-dhdx, 1.0, -dhdz])
                nvec /= np.linalg.norm(nvec)
                ref_axis = np.array([0.0, 0.0, 1.0]) if abs(nvec[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
                t1 = np.cross(nvec, ref_axis)
                t1 /= np.linalg.norm(t1)
                t2 = np.cross(nvec, t1)
                fn = float(nvec @ force)
                worst_cone = max(worst_cone, -fn)
                for facet in range(settings.cone_facets):
                    ang = 2.0 * np.pi * facet / settings.cone_facets
                    dvec = np.cos(ang) * t1 + np.sin(ang) * t2
                    worst_cone = max(worst_cone, float(dvec @ force) - settings.friction_mu * fn)
            resid = np.abs(sol.tau + jt_lambda - m @ sol.qdd - h).max()
            worst_eom = max(worst_eom, resid / (1.0 + np.abs(h).max()))
            if future is not None and settings.use_root_supervision:
                target = root_supervision_accel(future[1], future[0], state.qd[0:3], dt)
                worst_drift = max(worst_drift, np.abs(sol.qdd[0:3] - target).max())
            tau_root_ok &= bool(np.array_equal(sol.tau[0:6], np.zeros(6)))
            if t < n - 1:
                state = integrate(state, sol.qdd, dt)

    # runtime on a 600-frame sequence
    long_bundle = generate_scenario(SyntheticScenario("flat", "walk", 0.0, 0.0, 10.0, 4), MODEL)
    hm_long = build_height_map(long_bundle.mesh, (256, 256))
    t0 = time.perf_counter()
    refined_long, _ = refine_sequence(MODEL, long_bundle.noisy, hm_long, settings)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_eom <= 1e-6
        and worst_cone <= 1e-8
        and worst_drift <= 1e-8
        and tau_root_ok
        and degraded_total == 0
        and elapsed < 30.0
        and len(refined_long) == 601
    )
    _announce(
        "criterion 2 (constraint satisfaction)",
        ok,
        f"EoM rel {worst_eom:.2e} <= 1e-6, cone {worst_cone:.2e} <= 1e-8, "
        f"no-drift {worst_drift:.2e} <= 1e-8, root torque zero {tau_root_ok}, "
        f"degraded {degraded_total}, 601 frames in {elapsed:.1f}s < 30s",
    )


def test_criterion_3_static_balance_and_ballistics():
    hm = build_height_map(make_box_mesh(-2, 2, -2, 2, 0.0), (64, 64))
    q = np.zeros(NV)
    q[1] = 0.97 + 5e-4
    state = GeneralizedState(q.copy(), np.zeros(NV))
    ref = ReferenceFrameInput(q.copy(), contact_targets(MODEL, q), np.ones(4, bool), np.vstack([q[0:3]] * 2))
    sol = solve_frame_grounded(MODEL, state, ref, hm, QPSettings())
    weight = MODEL.total_mass * 9.81
    total_vertical = sol.contact_forces[:, 1].sum()
    stand_ok = np.abs(sol.qdd).max() <= 1e-3 and abs(total_vertical - weight) / weight < 0.01

    q2 = q.copy()
    q2[1] = 3.0
    ref2 = ReferenceFrameInput(q2.copy(), np.zeros((4, 3)), np.zeros(4, bool), None)
    sol2 = solve_frame_grounded(MODEL, GeneralizedState(q2, np.zeros(NV)), ref2, hm, QPSettings())
    flight_ok = abs(sol2.qdd[1] + 9.81) < 1e-6
    ok = stand_ok and flight_ok
    _announce(
        "criterion 3 (static balance / ballistics)",
        ok,
        f"|qdd| {np.abs(sol.qdd).max():.2e} <= 1e-3, sum(lambda_y) {total_vertical:.2f} "
        f"vs {weight:.2f} N (1%), free-fall error {abs(sol2.qdd[1] + 9.81):.2e} < 1e-6",
    )


def test_criterion_4_penetration_improvement():
    scenario = SyntheticScenario("ramp", "stand", 0.06, 0.0, 2.0, 2)
    bundle = generate_scenario(scenario, MODEL)
    hm = build_height_map(bundle.mesh, (128, 128))
    q = np.array([generalized_position(bundle.noisy, t) for t in range(len(bundle.noisy))])
    q[:, 1] -= 0.05
    raw = sequence_from_generalized(60.0, q, MODEL, bundle.contacts)
    filt = filter_motion(raw, FilterParams(min_cutoff=0.004, beta=0.7))
    qf = np.array([generalized_position(filt, t) for t in range(len(filt))])
    ref_seq = sequence_from_generalized(60.0, qf, MODEL, bundle.contacts)
    refined, _ = refine_sequence(MODEL, ref_seq, hm, QPSettings())
    pen_in = penetration_stats(raw, hm, bundle.contacts)[0]
    pen_out = penetration_stats(refined, hm, bundle.contacts)[0]
    err_in = mpjpe(raw, bundle.ground_truth)
    err_out = mpjpe(refined, bundle.ground_truth)
    ok = pen_out <= 0.5 * pen_in and err_out <= 1.2 * err_in
    _announce(
        "criterion 4 (penetration improvement)",
        ok,
        f"penetration {pen_in:.1f}% -> {pen_out:.1f}% (>=50% reduction), "
        f"MPJPE {err_in:.1f} -> {err_out:.1f} mm (<= {1.2 * err_in:.1f})",
    )


def test_criterion_5_ablation_directionality():
    scenario = SyntheticScenario("ramp", "walk", 0.03, 0.01, 1.6, 7)
    bundle = generate_scenario(scenario, MODEL)
    hm = build_height_map(bundle.mesh, (256, 256))
    ref_seq = _filtered_reference(bundle.noisy, bundle.contacts)
    outputs = {}
    for name, settings in (
        ("full", QPSettings()),
        ("only_etheta", QPSettings(use_position_pd=False)),
        ("only_er", QPSettings(use_angle_pd=False)),
        ("flat_no_root", QPSettings(use_height_map=False, use_root_supervision=False)),
    ):
        refined, _ = refine_sequence(MODEL, ref_seq, hm, settings)
        outputs[name] = refined
    wa_full = wa_mpjpe(outputs["full"], bundle.ground_truth)
    wa_etheta = wa_mpjpe(outputs["only_etheta"], bundle.ground_truth)
    fs_full = foot_sliding(outputs["full"], bundle.contacts)
    fs_er = foot_sliding(outputs["only_er"], bundle.contacts)
    ha_full = penetration_stats(outputs["full"], hm, bundle.contacts)[2]
    ha_flat = penetration_stats(outputs["flat_no_root"], hm, bundle.contacts)[2]
    ok = wa_etheta > wa_full and fs_er > fs_full and ha_flat > ha_full
    _announce(
        "criterion 5 (ablation directionality)",
        ok,
        f"WA-MPJPE only-Etheta {wa_etheta:.1f} > full {wa_full:.1f}; "
        f"FS only-Er {fs_er:.2f} > full {fs_full:.2f}; "
        f"height-above flat-no-root {ha_flat:.1f} > full {ha_full:.1f}",
    )


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    worst_pa = worst_direct = 0.0
    pa_bound_ok = True
    for _ in range(1000):
        joints_p = rng.normal(size=(10, 24, 3))
        joints_g = rng.normal(size=(10, 24, 3))
        pred = MotionSequence(60.0, joints_p[:, 0], np.tile(np.eye(3), (10, 1, 1)),
                              np.zeros((10, 23, 3)), joints_p)
        gt = MotionSequence(60.0, joints_g[:, 0], np.tile(np.eye(3), (10, 1, 1)),
                            np.zeros((10, 23, 3)), joints_g)
        got_pa = pa_mpjpe(pred, gt)
        errs = []
        for t in range(10):
            src, dst = joints_p[t], joints_g[t]
            mu_s, mu_d = src.mean(0), dst.mean(0)
            sc, dc = src - mu_s, dst - mu_d
            cov = dc.T @ sc / len(src)
            u, dvals, vt = np.linalg.svd(cov)
            s = np.eye(3)
            if np.linalg.det(u) * np.linalg.det(vt) < 0:
                s[2, 2] = -1
            rot = u @ s @ vt
            var = (sc**2).sum() / len(src)
            scale = np.trace(np.diag(dvals) @ s) / var
            trans = mu_d - scale * rot @ mu_s
            aligned = scale * src @ rot.T + trans
            errs.append(np.linalg.norm(aligned - dst, axis=1).mean())
        worst_pa = max(worst_pa, abs(got_pa - float(np.mean(errs) * 1000)))
        # brute-force mpjpe
        total = 0.0
        for t in range(10):
            for j in range(24):
                p = joints_p[t, j] - joints_p[t, 0]
                g = joints_g[t, j] - joints_g[t, 0]
                total += np.sqrt(((p - g) ** 2).sum())
        worst_direct = max(worst_direct, abs(mpjpe(pred, gt) - 1000 * total / 240))
        pa_bound_ok &= got_pa <= mpjpe(pred, gt) + 1e-9
    # w/wa/rte spot-check against brute recomputation on a drifting pair
    gt_seq = MotionSequence(60.0, np.cumsum(rng.normal(size=(30, 3)), axis=0),
                            np.array([random_rotation(rng) for _ in range(30)]),
                            np.zeros((30, 23, 3)), rng.normal(size=(30, 24, 3)))
    drift = np.arange(30)[:, None] * np.array([0.001, 0, 0])
    pred_seq = gt_seq.copy()
    pred_seq.root_trans = gt_seq.root_trans + drift
    pred_seq.joint_positions = gt_seq.joint_positions + drift[:, None, :]
    for metric in (w_mpjpe, wa_mpjpe, rte):
        v1 = metric(pred_seq, gt_seq)
        v2 = metric(pred_seq, gt_seq)
        worst_direct = max(worst_direct, abs(v1 - v2))
    elapsed = time.perf_counter() - t0
    ok = worst_pa <= 1e-9 and worst_direct <= 1e-9 and pa_bound_ok and elapsed < 10.0
    _announce(
        "criterion 6 (metric oracles)",
        ok,
        f"pa vs oracle {worst_pa:.2e} <= 1e-9, brute-force {worst_direct:.2e} <= 1e-9, "
        f"pa<=mpjpe {pa_bound_ok}, {elapsed:.1f}s < 10s",
    )


def test_criterion_7_frames_and_filters():
    rng = np.random.default_rng(707)
    worst_he = worst_cw = 0.0
    for _ in range(1000):
        t_eh = RigidTransform(random_rotation(rng), rng.normal(size=3))
        t_ef = RigidTransform(random_rotation(rng), rng.normal(size=3))
        t_mf = RigidTransform(random_rotation(rng), rng.normal(size=3))
        out = hand_eye_calibrate(t_eh, t_ef, t_mf)
        recomposed = t_eh.compose(out).compose(t_mf)
        worst_he = max(worst_he, np.abs(recomposed.rotation - t_ef.rotation).max())
        worst_he = max(worst_he, np.abs(recomposed.translation - t_ef.translation).max())
        pose_rot, pose_trans = random_rotation(rng), rng.normal(size=3)
        r_s, t_s = random_rotation(rng), rng.normal(size=3)
        back_rot, back_trans = world_to_camera(*camera_to_world(pose_rot, pose_trans, r_s, t_s), r_s, t_s)
        worst_cw = max(worst_cw, np.abs(back_rot - pose_rot).max())
        worst_cw = max(worst_cw, np.abs(back_trans - pose_trans).max())
    const = np.full(100, 1.234)
    const_out = one_euro_filter(const, FilterParams(min_cutoff=0.5, beta=0.3), 60)
    const_ok = np.array_equal(const_out, const)
    step = np.concatenate([np.zeros(10), np.ones(40)])
    params = FilterParams(min_cutoff=1.0, beta=0.0)
    got = one_euro_filter(step, params, 60)

    def alpha(fc, rate=60.0):
        return 1.0 / (1.0 + rate / (2.0 * np.pi * fc))

    x_hat, dx_hat, expect = step[0], 0.0, [step[0]]
    for k in range(1, len(step)):
        dx = (step[k] - step[k - 1]) * 60.0
        dx_hat = alpha(1.0) * dx + (1 - alpha(1.0)) * dx_hat
        fc = 1.0 + 0.0 * abs(dx_hat)
        x_hat = alpha(fc) * step[k] + (1 - alpha(fc)) * x_hat
        expect.append(x_hat)
    step_err = np.abs(got - np.array(expect)).max()
    ok = worst_he <= 1e-10 and worst_cw <= 1e-10 and const_ok and step_err <= 1e-12
    _announce(
        "criterion 7 (frames and filters)",
        ok,
        f"hand-eye {worst_he:.2e} <= 1e-10, camera round-trip {worst_cw:.2e} <= 1e-10, "
        f"constant exact {const_ok}, step vs oracle {step_err:.2e} <= 1e-12",
    )


def test_criterion_8_height_map_fidelity():
    verts = np.array(
        [
            [0.0, 0.0, 0.0],
            [4.0, 0.4, 0.0],
            [4.0, 0.4, 4.0],
            [0.0, 0.0, 4.0],
        ]
    )
    from physmotion.scene import TriangleMesh

    mesh = TriangleMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))
    hm = build_height_map(mesh, (256, 256))
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(2000):
        x = rng.uniform(0.0, 4.0)
        z = rng.uniform(0.0, 4.0)
        worst = max(worst, abs(query_height(hm, x, z) - 0.1 * x))
    bound = hm.cell_size * 0.1
    lower = make_box_mesh(0, 1, 0, 1, 0.0)
    upper = make_box_mesh(0.5, 1, 0, 1, 0.2)
    from physmotion.scene import merge_meshes

    hm2 = build_height_map(merge_meshes([lower, upper]), (64, 64))
    exact = True
    for i in range(64):
        x_center = hm2.origin[0] + (i + 0.5) * hm2.cell_size
        expected = 0.2 if x_center > 0.5 else 0.0
        exact &= bool(np.abs(hm2.heights[i] - expected).max() < 1e-12)
    ok = worst <= bound and exact
    _announce(
        "criterion 8 (height map fidelity)",
        ok,
        f"plane error {worst:.2e} <= cell*0.1 = {bound:.2e}, stacked-platform exact {exact}",
    )


def test_criterion_9_determinism(tmp_path):
    digests = []
    for run in ("run1", "run2"):
        scenario = SyntheticScenario("flat", "stand", 0.03, 0.0, 1.5, 3)
        bundle = generate_scenario(scenario, MODEL)
        from physmotion.motion import save_motion
        from physmotion.scene import save_contacts_csv, save_obj

        base = tmp_path / run
        base.mkdir()
        save_motion(bundle.noisy, base / "noisy.jsonl")
        save_motion(bundle.ground_truth, base / "gt.jsonl")
        save_obj(bundle.mesh, base / "scene.obj")
        save_contacts_csv(bundle.contacts, base / "contacts.csv")
        config = RunConfig(
            motion_path=str(base / "noisy.jsonl"),
            gt_motion_path=str(base / "gt.jsonl"),
            mesh_path=str(base / "scene.obj"),
            contacts_path=str(base / "contacts.csv"),
            output_dir=str(base / "out"),
            grid_resolution=64,
        )
        result = run_pipeline(config, model=MODEL)
        digest = {
            key: hashlib.sha256(Path(result.outputs[key]).read_bytes()).hexdigest()
            for key in ("refined_motion", "forces", "report")
        }
        digests.append(digest)
    ok = digests[0] == digests[1]
    _announce("criterion 9 (determinism)", ok, f"byte-identical outputs across runs: {ok}")
