#include "tuple/catalog.h"

namespace tcq {

Status Catalog::RegisterStream(StreamDef def) {
  std::lock_guard<std::mutex> lock(mu_);
  if (defs_.count(def.name) != 0) {
    return Status::AlreadyExists("source already registered: " + def.name);
  }
  if (def.schema == nullptr || def.schema->num_fields() == 0) {
    return Status::InvalidArgument("stream needs a non-empty schema: " +
                                   def.name);
  }
  if (def.timestamp_field >= 0 &&
      static_cast<size_t>(def.timestamp_field) >= def.schema->num_fields()) {
    return Status::InvalidArgument("timestamp_field out of range for " +
                                   def.name);
  }
  if (def.timestamp_field >= 0 &&
      def.schema->field(static_cast<size_t>(def.timestamp_field)).type !=
          ValueType::kInt64) {
    return Status::InvalidArgument("timestamp column of " + def.name +
                                   " must be INT64");
  }
  defs_.emplace(def.name, std::move(def));
  return Status::OK();
}

Status Catalog::RegisterTable(StreamDef def, TupleVector rows) {
  def.is_table = true;
  const std::string name = def.name;
  TCQ_RETURN_NOT_OK(RegisterStream(std::move(def)));
  std::lock_guard<std::mutex> lock(mu_);
  table_rows_.emplace(name, std::move(rows));
  return Status::OK();
}

Result<StreamDef> Catalog::GetStream(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = defs_.find(name);
  if (it == defs_.end()) {
    return Status::NotFound("unknown stream or table: " + name);
  }
  return it->second;
}

Result<TupleVector> Catalog::GetTableRows(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_rows_.find(name);
  if (it == table_rows_.end()) {
    return Status::NotFound("not a static table: " + name);
  }
  return it->second;
}

bool Catalog::Exists(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return defs_.count(name) != 0;
}

std::vector<std::string> Catalog::ListSources() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(defs_.size());
  for (const auto& [name, def] : defs_) names.push_back(name);
  return names;
}

}  // namespace tcq
