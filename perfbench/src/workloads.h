#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "trace.h"

namespace perfbench {

/// crawl_detect: gen -> crawl -> detect through StreamingCats::Run.
RunResult RunCrawlDetect(const Args& args, Tracer* tracer);

/// serve_score / serve_delta: framed TCP scoring against a ServeLoop.
RunResult RunServe(const Args& args, Tracer* tracer, bool delta);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
