package main

import (
	"sort"
	"strings"

	fsd "fsdinference"
	"fsdinference/internal/cloud/usage"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's whole output vocabulary; BENCHMARK.json declares
// the same names (a test keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. The host metrics (setup_s, queries_per_s,
// retained_heap_mb) are medians over the run's fresh processes; the sim_*
// metrics are simulated outcomes that repeat exactly at one seed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"queries_per_s", "queries/s"},
	{"retained_heap_mb", "MB"},
	{"sim_p50_ms", "ms"},
	{"sim_p99_ms", "ms"},
	{"sim_slo_miss_frac", "fraction"},
	{"sim_cost_usd_per_1k", "USD"},
}

// cpuLayers are the repository's modules the CPU profile is attributed
// to, named by package path below internal/ with "/" as ".". "runtime"
// takes samples with no repository frame (GC workers, the scheduler);
// "other" takes repository packages outside this list, the benchmark
// harness included.
var cpuLayers = []string{
	"sim", "workload", "serve", "plan", "core", "collective", "wire",
	"sparse", "model", "partition", "hypergraph",
	"cloud.faas", "cloud.sqs", "cloud.sns", "cloud.s3", "cloud.kvstore",
	"cloud.kvcluster", "cloud.usage", "obs", "obs.monitor",
	"runtime", "other",
}

// stageNames are the span names whose simulated self time is reported
// per sampled request.
var stageNames = []string{
	"coalesce", "queue", "run", "worker", "load", "layer",
	"send", "recv", "barrier", "allreduce", "gather",
}

// timedCalls are the public calls whose host wall time each child
// records.
var timedCalls = []string{
	"model.generate_s", "partition.build_plan_s", "serve.new_service_s",
	"workload.generate_s", "model.reference_s",
}

// workCounts are the simulated work counts and ratios read from the
// replay's Report and the environment's meter delta over the replay.
var workCounts = []metricDef{
	{"serve.runs", "count"},
	{"serve.requests_per_run", "requests"},
	{"serve.shed", "count"},
	{"serve.replans", "count"},
	{"serve.peak_replicas", "count"},
	{"serve.failed_frac", "fraction"},
	{"cloud.faas.invocations", "count"},
	{"cloud.faas.cold_starts", "count"},
	{"cloud.faas.warm_starts", "count"},
	{"cloud.faas.gb_s", "GB-s"},
	{"cloud.sns.publish_calls", "count"},
	{"cloud.sns.messages", "count"},
	{"cloud.sqs.receive_calls", "count"},
	{"cloud.sqs.delete_calls", "count"},
	{"cloud.sqs.messages_per_receive", "ratio"},
	{"cloud.s3.put_calls", "count"},
	{"cloud.s3.get_calls", "count"},
	{"cloud.s3.list_calls", "count"},
	{"cloud.s3.gets_per_list", "ratio"},
	{"cloud.kvstore.ops", "count"},
	{"cloud.kvstore.bytes_in", "bytes"},
	{"cloud.kvstore.bytes_out", "bytes"},
	{"core.hybrid.small_values", "count"},
	{"core.hybrid.bulk_values", "count"},
	{"collective.ops", "count"},
	{"cost.lambda_usd", "USD"},
	{"cost.sns_usd", "USD"},
	{"cost.sqs_usd", "USD"},
	{"cost.s3_usd", "USD"},
	{"cost.kv_usd", "USD"},
	{"obs.monitor.alerts", "count"},
	{"obs.monitor.violation_s", "s"},
}

// endpointMetrics are reported for each channel-day endpoint; other
// workloads have no endpoint of those names and report 0.
var endpointMetrics = []metricDef{
	{"sim_p95_ms", "ms"},
	{"cost_usd_per_1k", "USD"},
	{"runs", "count"},
}

// perLayer lists every metric a traced run reports, in output order.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_s", "s"})
	}
	for _, c := range timedCalls {
		defs = append(defs, metricDef{c, "s"})
	}
	defs = append(defs, workCounts...)
	for _, ep := range channelEndpoints {
		for _, m := range endpointMetrics {
			defs = append(defs, metricDef{"endpoint." + ep.name + "." + m.name, m.unit})
		}
	}
	for _, s := range stageNames {
		defs = append(defs, metricDef{"stage." + s + ".self_ms", "ms"})
	}
	return append(defs,
		metricDef{"runtime.peak_rss_mb", "MB"},
		metricDef{"trace.overhead_frac", "fraction"},
	)
}

// ms converts a duration in nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// per1k scales a total to a per-1000-requests figure.
func per1k(total float64, requests int) float64 {
	if requests == 0 {
		return 0
	}
	return total / float64(requests) * 1000
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// simMetrics reads the simulated outcome of one replay: the sim_*
// end-to-end metrics and the per-layer work counts. used is the
// environment's meter delta over the replay window; alerts (transitions,
// firing and resolving) and violationS come from the service's monitor
// (zero without one).
func simMetrics(rep *fsd.ServiceReport, used usage.Meter, alerts int, violationS float64) map[string]float64 {
	out := map[string]float64{}
	missed := rep.Failed
	runs, shed, replans, peak := 0, 0, 0, 0
	requests := 0.0
	for _, ep := range rep.Endpoints {
		missed += ep.DeadlineMissed
		runs += ep.Runs
		requests += ep.AvgRunRequests * float64(ep.Runs)
		shed += ep.Shed
		replans += len(ep.Replans)
		peak += ep.PeakReplicas
	}
	out["sim_p50_ms"] = ms(int64(rep.Latency.P50))
	out["sim_p99_ms"] = ms(int64(rep.Latency.P99))
	out["sim_slo_miss_frac"] = ratio(float64(missed), float64(rep.Queries))
	out["sim_cost_usd_per_1k"] = per1k(rep.TotalCost.Total(), rep.Queries)

	out["serve.runs"] = float64(runs)
	out["serve.requests_per_run"] = ratio(requests, float64(runs))
	out["serve.shed"] = float64(shed)
	out["serve.replans"] = float64(replans)
	out["serve.peak_replicas"] = float64(peak)
	out["serve.failed_frac"] = ratio(float64(rep.Failed), float64(rep.Queries))
	out["cloud.faas.invocations"] = float64(used.LambdaInvocations)
	out["cloud.faas.cold_starts"] = float64(rep.ColdStarts)
	out["cloud.faas.warm_starts"] = float64(rep.WarmStarts)
	out["cloud.faas.gb_s"] = used.LambdaGBSeconds
	out["cloud.sns.publish_calls"] = float64(used.SNSPublishCalls)
	out["cloud.sns.messages"] = float64(used.SNSMessages)
	out["cloud.sqs.receive_calls"] = float64(used.SQSReceiveCalls)
	out["cloud.sqs.delete_calls"] = float64(used.SQSDeleteCalls)
	out["cloud.sqs.messages_per_receive"] = ratio(float64(used.SQSSendCalls), float64(used.SQSReceiveCalls))
	out["cloud.s3.put_calls"] = float64(used.S3PutCalls)
	out["cloud.s3.get_calls"] = float64(used.S3GetCalls)
	out["cloud.s3.list_calls"] = float64(used.S3ListCalls)
	out["cloud.s3.gets_per_list"] = ratio(float64(used.S3GetCalls), float64(used.S3ListCalls))
	out["cloud.kvstore.ops"] = float64(used.KVOps)
	out["cloud.kvstore.bytes_in"] = float64(used.KVBytesIn)
	out["cloud.kvstore.bytes_out"] = float64(used.KVBytesOut)
	out["core.hybrid.small_values"] = float64(rep.HybridSmallValues)
	out["core.hybrid.bulk_values"] = float64(rep.HybridBulkValues)
	var ops int64
	for _, n := range rep.Collectives {
		ops += n
	}
	out["collective.ops"] = float64(ops)
	out["cost.lambda_usd"] = rep.TotalCost.Lambda
	out["cost.sns_usd"] = rep.TotalCost.SNS
	out["cost.sqs_usd"] = rep.TotalCost.SQS
	out["cost.s3_usd"] = rep.TotalCost.S3
	out["cost.kv_usd"] = rep.TotalCost.KV
	out["obs.monitor.alerts"] = float64(alerts)
	out["obs.monitor.violation_s"] = violationS

	for _, ep := range channelEndpoints {
		p95, cost, epRuns := 0.0, 0.0, 0
		for _, er := range rep.Endpoints {
			if er.Name == ep.name {
				p95 = ms(int64(er.Latency.P95))
				cost = per1k(er.Cost.Total(), er.Queries)
				epRuns = er.Runs
			}
		}
		out["endpoint."+ep.name+".sim_p95_ms"] = p95
		out["endpoint."+ep.name+".cost_usd_per_1k"] = cost
		out["endpoint."+ep.name+".runs"] = float64(epRuns)
	}
	return out
}

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// layerOf maps a profiled function name to its CPU layer: its package
// under fsdinference/internal/ when cpuLayers names it, "other" for any
// other package of this repository (the benchmark's own package main
// included), and "" for code outside it.
func layerOf(fn string) string {
	const mod = "fsdinference"
	if strings.HasPrefix(fn, "main.") {
		return "other"
	}
	if !strings.HasPrefix(fn, mod+".") && !strings.HasPrefix(fn, mod+"/") {
		return ""
	}
	pkg := fn
	// The package path ends at the first "." after the last "/" that
	// precedes any receiver or closure suffix.
	slash := strings.LastIndex(pkg[:firstParenOrEnd(pkg)], "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	rel, ok := strings.CutPrefix(pkg, mod+"/internal/")
	if !ok {
		return "other"
	}
	layer := strings.ReplaceAll(rel, "/", ".")
	for _, l := range cpuLayers {
		if l == layer {
			return l
		}
	}
	return "other"
}

// firstParenOrEnd bounds the package-path search: receiver types such as
// "(*Bucket)" or generic instantiations "[...]" may contain "/" or ".".
func firstParenOrEnd(s string) int {
	if i := strings.IndexAny(s, "(["); i >= 0 {
		return i
	}
	return len(s)
}
