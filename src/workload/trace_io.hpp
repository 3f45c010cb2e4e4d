// Plain-text trace persistence, modelled on the Standard Workload Format
// (SWF): '; '-prefixed header comments, one whitespace-separated record per
// line. Lets users replay real traces (e.g. the actual NAS log) instead of
// the synthetic generator.
//
// Job record:  id  arrival  work  nodes  demand
// Site record: id  nodes    speed security
//
// Job trace v2 may carry the workload's raw per-(job, site) ETC matrix as
// a versioned ";etc" section after the job records:
//
//   ;etc v1 <n_jobs> <n_sites>
//   ;etc-row <job> <cell> <cell> ...     (one line per job, in job order)
//
// The section lines start with ';', so v1 readers (and other SWF-ish
// tooling) skip them as comments — reads are backward- AND
// forward-compatible. read_jobs_trace() recognises the section and
// attaches it as the trace's sim::ExecModel, making `generate` +
// `run --trace` replay raw-ETC scenarios exactly.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/exec_model.hpp"
#include "sim/job.hpp"
#include "sim/site.hpp"
#include "workload/workload.hpp"

namespace gridsched::workload {

/// Writes job records; when `exec` carries a raw ETC matrix it is appended
/// as the versioned ";etc" section (shape-checked against `jobs`).
void write_jobs(std::ostream& out, const std::vector<sim::Job>& jobs,
                const sim::ExecModel& exec = {});
void write_jobs_file(const std::string& path, const std::vector<sim::Job>& jobs,
                     const sim::ExecModel& exec = {});

/// A parsed job trace: the records plus the execution model to replay
/// under — raw ETC when the file carries an ";etc" section, the rank-1
/// work/speed fallback otherwise.
struct JobsTrace {
  std::vector<sim::Job> jobs;
  sim::ExecModel exec;
};

/// Parses job records and any ";etc" section; throws std::runtime_error
/// with a line number on malformed input (including a job whose arrival
/// is below the previous job's, and a malformed or shape-inconsistent ETC
/// section). Other comment ("; ...") and blank lines are skipped.
JobsTrace read_jobs_trace(std::istream& in);
JobsTrace read_jobs_trace_file(const std::string& path);

/// Records-only convenience wrappers around read_jobs_trace.
std::vector<sim::Job> read_jobs(std::istream& in);
std::vector<sim::Job> read_jobs_file(const std::string& path);

void write_sites(std::ostream& out, const std::vector<sim::SiteConfig>& sites);
void write_sites_file(const std::string& path,
                      const std::vector<sim::SiteConfig>& sites);

std::vector<sim::SiteConfig> read_sites(std::istream& in);
std::vector<sim::SiteConfig> read_sites_file(const std::string& path);

/// Writes `workload` as a job trace (with its ";etc" section when it
/// carries a raw ETC) plus a site trace. The format has no churn section,
/// so a workload with churning sites is refused with std::invalid_argument
/// naming it, before either file is written — a replay of its traces would
/// silently run churn-free.
void write_workload_files(const Workload& workload,
                          const std::string& jobs_path,
                          const std::string& sites_path);

}  // namespace gridsched::workload
