// Builders for the ServiceCommands the service tests run through
// IntegrationService::Execute, one per verb.

#ifndef ECRINT_TESTS_SERVICE_COMMANDS_H_
#define ECRINT_TESTS_SERVICE_COMMANDS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "service/service.h"

namespace ecrint::service {

inline ServiceCommand OpCmd(ServiceCommand::Op op, int64_t deadline_ns = 0) {
  ServiceCommand command;
  command.op = op;
  command.deadline_ns = deadline_ns;
  return command;
}

inline ServiceCommand DefineCmd(std::string ddl) {
  ServiceCommand command = OpCmd(ServiceCommand::Op::kDefine);
  command.text = std::move(ddl);
  return command;
}

inline ServiceCommand EquivCmd(ecr::AttributePath a, ecr::AttributePath b) {
  ServiceCommand command = OpCmd(ServiceCommand::Op::kEquiv);
  command.path_a = std::move(a);
  command.path_b = std::move(b);
  return command;
}

inline ServiceCommand AssertCmd(core::ObjectRef first, int type_code,
                                core::ObjectRef second) {
  ServiceCommand command = OpCmd(ServiceCommand::Op::kAssert);
  command.first = std::move(first);
  command.type_code = type_code;
  command.second = std::move(second);
  return command;
}

inline ServiceCommand ExportCmd() {
  return OpCmd(ServiceCommand::Op::kExport);
}

inline ServiceCommand IntegrateCmd(std::vector<std::string> schemas = {}) {
  ServiceCommand command = OpCmd(ServiceCommand::Op::kIntegrate);
  command.schemas = std::move(schemas);
  return command;
}

inline ServiceCommand RankCmd(std::string schema1, std::string schema2,
                              core::StructureKind kind, bool include_zero) {
  ServiceCommand command = OpCmd(ServiceCommand::Op::kRank);
  command.schema1 = std::move(schema1);
  command.schema2 = std::move(schema2);
  command.kind = kind;
  command.include_zero = include_zero;
  return command;
}

}  // namespace ecrint::service

#endif  // ECRINT_TESTS_SERVICE_COMMANDS_H_
