package suite

// A Decl declares a metric: its name and unit. BENCHMARK.json at the
// repo root carries the same two lists with direction and bound; the
// smoke test holds the two in step.
type Decl struct {
	Name string
	Unit string
}

// ClockOf names the clock a unit is read on.
func ClockOf(unit string) string {
	switch unit {
	case "s", "ms", "us", "ns", "op/s", "MiB/s":
		return "wall"
	case "vs", "vms", "vus", "op/vs":
		return "virtual"
	}
	return "count"
}

// EndToEnd are the metrics of an untraced run. Units name the clock:
// s/ms are wall, vs/vms are virtual.
var EndToEnd = []Decl{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"ops_per_vs", "op/vs"},
	{"op_p50_ms", "ms"},
	{"op_p25_vms", "vms"},
	{"alloc_mb_per_op", "MiB"},
	{"wire_kb_per_op", "KiB"},
}

// PerLayer are the metrics of a traced run, layer by layer.
var PerLayer = []Decl{
	{"vtime.advance_ns", "ns"},
	{"device.charge_ns", "ns"},

	{"sgx.page_faults_per_op", "count"},
	{"sgx.transitions_per_op", "count"},
	{"sgx.async_syscalls_per_op", "count"},
	{"sgx.mb_accessed_per_op", "MiB"},
	{"sgx.gflop_per_op", "GFLOP"},
	{"sgx.create_enclave_ms", "ms"},
	{"sgx.create_enclave_vms", "vms"},
	{"sgx.quote_verify_ms", "ms"},
	{"sgx.paged_stream_vms_per_mb", "vms"},
	{"sgx.paged_random_vms_per_mb", "vms"},

	{"scone.syscall_us", "us"},
	{"scone.syscall_vus", "vus"},

	{"fsapi.os_write_mb_per_s", "MiB/s"},
	{"fsapi.os_read_mb_per_s", "MiB/s"},

	{"fsshield.write_mb_per_s", "MiB/s"},
	{"fsshield.read_mb_per_s", "MiB/s"},
	{"fsshield.write_vms_per_mb", "vms"},
	{"fsshield.read_vms_per_mb", "vms"},
	{"fsshield.write_alloc_mb_per_mb", "ratio"},
	{"fsshield.ckpt_write_ms", "ms"},

	{"netshield.handshake_ms", "ms"},
	{"netshield.handshake_vms", "vms"},
	{"netshield.echo_8k_us", "us"},
	{"netshield.stream_mb_per_s", "MiB/s"},
	{"netshield.stream_vms_per_mb", "vms"},

	{"seccrypto.seal_mb_per_s", "MiB/s"},
	{"seccrypto.open_mb_per_s", "MiB/s"},
	{"seccrypto.prg_mb_per_s", "MiB/s"},
	{"seccrypto.sign_us", "us"},
	{"seccrypto.verify_us", "us"},
	{"seccrypto.ca_issue_ms", "ms"},

	{"cas.attest_ms", "ms"},
	{"cas.attest_vms", "vms"},
	{"cas.attest_init_vms", "vms"},
	{"cas.attest_quote_vms", "vms"},
	{"cas.attest_confirm_vms", "vms"},
	{"cas.attest_keys_vms", "vms"},
	{"cas.register_ms", "ms"},

	{"core.launch_ms", "ms"},
	{"core.launch_vms", "vms"},
	{"core.provision_ms", "ms"},
	{"core.frame_rt_us", "us"},
	{"core.setup_vs", "vs"},

	{"models.build_densenet_ms", "ms"},
	{"datasets.mnist_generate_ms", "ms"},
	{"datasets.mnist_load_ms", "ms"},

	{"tflite.unmarshal_ms", "ms"},
	{"tflite.allocate_ms", "ms"},
	{"tflite.allocate_alloc_mb", "MiB"},
	{"tflite.invoke_b1_ms", "ms"},
	{"tflite.invoke_b1_vms", "vms"},
	{"tflite.invoke_b1_alloc_kb", "KiB"},
	{"tflite.invoke_b1_gflops", "GFLOP"},
	{"tflite.invoke_mlp_b16_ms", "ms"},
	{"tflite.invoke_mlp_b16_vms", "vms"},

	{"tf.train_step_ms", "ms"},
	{"tf.train_step_vms", "vms"},
	{"tf.train_step_alloc_mb", "MiB"},
	{"tf.mlp_step_ms", "ms"},
	{"tf.encode_tensor_mb_per_s", "MiB/s"},
	{"tf.decode_tensor_mb_per_s", "MiB/s"},
	{"tf.ckpt_encode_ms", "ms"},

	{"dist.step_p50_ms", "ms"},
	{"dist.step_p95_ms", "ms"},
	{"dist.step_p50_vms", "vms"},
	{"dist.step_p95_vms", "vms"},
	{"dist.pull_vms", "vms"},
	{"dist.compute_vms", "vms"},
	{"dist.push_vms", "vms"},
	{"dist.push_wire_vms_per_shard", "vms"},
	{"dist.push_kb_per_step", "KiB"},
	{"dist.send_recv_ms", "ms"},
	{"dist.send_recv_vms", "vms"},
	{"dist.ckpt_ms", "ms"},
	{"dist.stale_retries", "count"},
	{"dist.evictions", "count"},
	{"dist.dropped_pushes", "count"},
	{"dist.final_accuracy", "ratio"},

	{"serving.wire_rt_us", "us"},
	{"serving.wire_req_kb", "KiB"},
	{"serving.wire_resp_kb", "KiB"},
	{"serving.noop_rt_ms", "ms"},
	{"serving.noop_rt_vms", "vms"},
	{"serving.rows_per_invoke", "count"},
	{"serving.rejected_share", "ratio"},
	{"serving.gateway_p50_vms", "vms"},
	{"serving.gateway_p99_vms", "vms"},
	{"serving.op_p99_vms", "vms"},
	{"serving.load_model_ms", "ms"},
	{"serving.load_model_vms", "vms"},
	{"serving.dial_ms", "ms"},

	{"router.hop_ms", "ms"},
	{"router.hop_vms", "vms"},
	{"router.start_ms", "ms"},
	{"router.dial_ms", "ms"},
	{"router.step_vms_ocr", "vms"},
	{"router.step_vms_classify", "vms"},
	{"router.step_vms_redact", "vms"},
	{"router.makespan_share", "ratio"},
	{"router.failovers", "count"},
	{"router.node_errors", "count"},

	{"federated.round_ms", "ms"},
	{"federated.round_vms", "vms"},
	{"federated.uplink_kb_per_update", "KiB"},
	{"federated.refused_share", "ratio"},
	{"federated.reveals_per_round", "count"},
	{"federated.final_accuracy", "ratio"},

	{"proc.peak_rss_mb", "MiB"},
	{"proc.cpu_s", "s"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},

	{"load.op_p50_vms", "vms"},
	{"load.op_p99_ms", "ms"},
	{"load.failed_ops_share", "ratio"},

	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.coverage_virtual", "ratio"},
	{"trace.coverage_wall", "ratio"},
}
