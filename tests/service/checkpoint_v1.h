// The v1 text checkpoint writer and an owning parse, for tests only: the
// service writes v2 and still reads v1 through ParseCheckpointAny, so old
// data directories keep recovering. The writer follows the v1 format in
// docs/FORMATS.md independently of the service's meta-section code, so
// the reader is checked against the documented format, not against
// itself.

#ifndef ECRINT_TESTS_SERVICE_CHECKPOINT_V1_H_
#define ECRINT_TESTS_SERVICE_CHECKPOINT_V1_H_

#include <string>
#include <string_view>
#include <utility>

#include "common/result.h"
#include "service/recovery.h"

namespace ecrint::service {

inline std::string SerializeCheckpoint(const Checkpoint& checkpoint) {
  std::string out = "ecrint-checkpoint v1\nseq ";
  out += std::to_string(checkpoint.seq);
  if (checkpoint.epoch > 0) {
    out += "\nepoch ";
    out += std::to_string(checkpoint.epoch);
  }
  const engine::EngineStamp& stamp = checkpoint.stamp;
  out += "\nstamp";
  for (int64_t counter :
       {stamp.schema_generation, stamp.equivalence_generation,
        stamp.assertion_epoch, stamp.assertion_log_size,
        stamp.integration_version}) {
    out += ' ' + std::to_string(counter);
  }
  if (checkpoint.integrated) {
    out += "\nintegrated";
    for (const std::string& schema : checkpoint.integrated_schemas) {
      out += ' ' + schema;
    }
  }
  out += "\n%project\n";
  out += checkpoint.project_text;
  return out;
}

// Parses a v1 checkpoint into an owned copy.
inline Result<Checkpoint> ParseCheckpoint(std::string_view text) {
  if (text.starts_with(kCheckpointV2Magic)) {
    return ParseError("not a v1 checkpoint");
  }
  ECRINT_ASSIGN_OR_RETURN(CheckpointView view, ParseCheckpointAny(text));
  Checkpoint checkpoint;
  checkpoint.seq = view.seq;
  checkpoint.epoch = view.epoch;
  checkpoint.stamp = view.stamp;
  checkpoint.integrated = view.integrated;
  checkpoint.integrated_schemas = std::move(view.integrated_schemas);
  checkpoint.project_text = std::string(view.project_text);
  return checkpoint;
}

}  // namespace ecrint::service

#endif  // ECRINT_TESTS_SERVICE_CHECKPOINT_V1_H_
